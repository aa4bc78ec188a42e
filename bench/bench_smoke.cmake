# Smoke harness for the microbenchmarks: run each for one short iteration
# and fail if either crashes or rejects its flags. Invoked by the
# `bench_smoke` CTest target (see CMakeLists.txt here).
execute_process(COMMAND ${MICRO_FORECAST} --quick RESULT_VARIABLE rc_forecast)
if(NOT rc_forecast EQUAL 0)
  message(FATAL_ERROR "micro_forecast --quick failed (exit ${rc_forecast})")
endif()

# Observability hot path: --quick skips the wall-clock gate but still
# asserts the record paths allocate nothing.
execute_process(COMMAND ${MICRO_OBS} --quick RESULT_VARIABLE rc_obs)
if(NOT rc_obs EQUAL 0)
  message(FATAL_ERROR "micro_obs --quick failed (exit ${rc_obs})")
endif()

# Wire path: --quick shrinks the iteration count but still asserts the
# one-allocation-encode and zero-copy-parse budgets and the message codecs'
# allocation counts.
execute_process(COMMAND ${MICRO_PACKET} --quick RESULT_VARIABLE rc_packet)
if(NOT rc_packet EQUAL 0)
  message(FATAL_ERROR "micro_packet --quick failed (exit ${rc_packet})")
endif()

# Ramsey kernels: --quick shrinks the iteration counts but still asserts
# the Paley(17) counter-example check and the graph image round-trip.
execute_process(COMMAND ${MICRO_RAMSEY} --quick RESULT_VARIABLE rc_ramsey)
if(NOT rc_ramsey EQUAL 0)
  message(FATAL_ERROR "micro_ramsey --quick failed (exit ${rc_ramsey})")
endif()

# Timer core: --quick runs a few rounds at both queue depths and of the
# sim_deliver leg; non-zero exit means TimerQueue popped out of (deadline,
# id) order or allocated while adding or popping timers, or a warmed-up
# SimTransport send plus EventQueue delivery allocated at all.
execute_process(COMMAND ${MICRO_TIMER} --quick RESULT_VARIABLE rc_timer)
if(NOT rc_timer EQUAL 0)
  message(FATAL_ERROR "micro_timer --quick failed (exit ${rc_timer})")
endif()

# Reliable-call policy arms (retry/hedge vs bare call under injected loss).
# --quick shrinks the call count but still asserts the policy arms dominate.
execute_process(COMMAND ${ABLATION_TIMEOUTS} --quick RESULT_VARIABLE rc_policy)
if(NOT rc_policy EQUAL 0)
  message(FATAL_ERROR "ablation_timeouts --quick failed (exit ${rc_policy})")
endif()

# Real-network scale gate: a short closed-loop soak over loopback TCP.
# Non-zero exit means a lost/duplicated reply or a connection shortfall.
execute_process(COMMAND ${C10K_SOAK} --quick RESULT_VARIABLE rc_c10k)
if(NOT rc_c10k EQUAL 0)
  message(FATAL_ERROR "c10k_soak --quick failed (exit ${rc_c10k})")
endif()

# Sharded scale gate: the same closed loop across SO_REUSEPORT reactor
# shards. Non-zero exit means a lost/duplicated/failed reply, a stuck
# client, a connection shortfall, or broken cross-shard distribution.
execute_process(COMMAND ${C100K_SOAK} --quick RESULT_VARIABLE rc_c100k)
if(NOT rc_c100k EQUAL 0)
  message(FATAL_ERROR "c100k_soak --quick failed (exit ${rc_c100k})")
endif()

# Gossip scale gate: digest/delta anti-entropy over a growing component
# population. Non-zero exit means store divergence after chaos, digest bytes
# tracking the population, or a blown convergence-round cap.
execute_process(COMMAND ${GOSSIP_SCALE} --quick RESULT_VARIABLE rc_gossip)
if(NOT rc_gossip EQUAL 0)
  message(FATAL_ERROR "gossip_scale --quick failed (exit ${rc_gossip})")
endif()

# Scheduler scale gate: batched directives over a sharded pool under client
# churn. Non-zero exit means a lost/double-issued unit, a failed replay
# dedupe, an unswept dead client, or unbounded directive latency.
execute_process(COMMAND ${SCHED_SCALE} --quick RESULT_VARIABLE rc_sched)
if(NOT rc_sched EQUAL 0)
  message(FATAL_ERROR "sched_scale --quick failed (exit ${rc_sched})")
endif()

# Model-checker gate: bounded exhaustive exploration of the protocol
# fixtures. Non-zero exit means an invariant violation on some interleaving,
# a blown branch cap, a reduction ratio under 5x, or the seeded no-dedupe
# bug escaping (not caught, over-long repro, or nondeterministic replay).
execute_process(COMMAND ${MC_EXPLORE} --quick RESULT_VARIABLE rc_mc)
if(NOT rc_mc EQUAL 0)
  message(FATAL_ERROR "mc_explore --quick failed (exit ${rc_mc})")
endif()

# WISH storm gate: interactive job control + barrier epochs + env sync under
# daemon crash-restart chaos. Non-zero exit means a lost job, a split or
# hung barrier, env divergence, or an under-delivered chaos plan.
execute_process(COMMAND ${WISH_STORM} --quick RESULT_VARIABLE rc_wish)
if(NOT rc_wish EQUAL 0)
  message(FATAL_ERROR "wish_storm --quick failed (exit ${rc_wish})")
endif()
