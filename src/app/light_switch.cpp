#include "app/light_switch.hpp"

#include "common/wire.hpp"

namespace ew::app {

void LightSwitch::turn_on() {
  query_mds();
  if (opts_.netsolve_agent.valid()) request_netsolve();
}

void LightSwitch::retry(void (LightSwitch::*step)()) {
  node_.executor().schedule(opts_.retry_delay, [this, step] { (this->*step)(); });
}

void LightSwitch::query_mds() {
  // The MDS lookup is a pure read: resend lost queries within the call and
  // hedge once the RTT tail is known; the app-level retry() loop restarts
  // the whole sequence only after the call itself has given up.
  CallOptions q;
  q.retry = RetryPolicy::standard(2);
  q.hedge = HedgePolicy::at(0.95);
  q.trace_tag = "switch.mds";
  node_.call(opts_.mds, core::msgtype::kMdsQuery, {}, std::move(q),
             [this](Result<Bytes> r) {
               if (!r.ok()) {
                 retry(&LightSwitch::query_mds);
                 return;
               }
               auto gram = wire::decode<Endpoint>(*r);
               if (!gram) {
                 retry(&LightSwitch::query_mds);
                 return;
               }
               authenticate(*gram);
             });
}

void LightSwitch::authenticate(const Endpoint& gram) {
  CallOptions a;
  a.trace_tag = "switch.auth";
  node_.call(gram, core::msgtype::kGramAuth, {}, std::move(a),
             [this, gram](Result<Bytes> r) {
               if (!r.ok()) {
                 retry(&LightSwitch::query_mds);
                 return;
               }
               submit(gram);
             });
}

void LightSwitch::submit(const Endpoint& gram) {
  Writer w;
  w.str(opts_.binary);
  // Submissions start jobs; a blind resend could start two. Single attempt,
  // with the app loop re-running the whole MDS→auth→submit sequence.
  CallOptions s;
  s.trace_tag = "switch.submit";
  node_.call(gram, core::msgtype::kGramSubmit, w.take(), std::move(s),
             [this](Result<Bytes> r) {
               if (!r.ok()) {
                 retry(&LightSwitch::query_mds);
                 return;
               }
               globus_on_ = true;
             });
}

void LightSwitch::request_netsolve() {
  CallOptions n;
  n.trace_tag = "switch.netsolve";
  node_.call(opts_.netsolve_agent, core::msgtype::kNetSolveRequest, {},
             std::move(n), [this](Result<Bytes> r) {
               if (!r.ok()) {
                 retry(&LightSwitch::request_netsolve);
                 return;
               }
               netsolve_on_ = true;
             });
}

}  // namespace ew::app
