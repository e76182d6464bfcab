// The execution context every maintenance entry point takes: where spans
// and metrics go, and which pool (if any) the morsel operators may use.
//
// Passed whole to every stage, so stage options structs hold policy
// only. Every pointer is nullable: a null tracer or registry disables
// that sink (one branch per instrumentation site), and a null pool is
// the exact serial path. The context never owns what it points at; the
// caller (normally warehouse::Warehouse) keeps the sinks and the pool
// alive across the call.
#pragma once

namespace sdelta::obs {
class Tracer;
class MetricsRegistry;
}  // namespace sdelta::obs

namespace sdelta::exec {

class ThreadPool;

struct Context {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Morsel-driven operators fork onto this pool; maintenance steps
  /// themselves always run in order on the calling thread.
  ThreadPool* pool = nullptr;
};

}  // namespace sdelta::exec
