#ifndef FW_BENCH_E2E_LIVE_SESSION_H_
#define FW_BENCH_E2E_LIVE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "e2e.h"
#include "session/session.h"

namespace fw {
namespace e2e {

/// One StreamSession fed from a workload's inputs the way a dashboard host
/// feeds it: queries register as SQL, events arrive through Push or
/// PushColumns, dashboards are edited by remove + add, and a crash is the
/// session's destructor followed by StreamSession::Recover. Every result
/// goes to the observer tagged with its query id.
class LiveSession {
 public:
  struct Config {
    bool columnar = true;
    uint32_t num_shards = 1;
    bool durable = false;
    /// Edit every kChurnInterval events while feeding.
    bool churn = false;
    /// Position in the step list the first edit takes.
    size_t first_step = 0;
    /// Durability directory; must not hold a previous session's files.
    /// Removed with the LiveSession.
    std::string dir;
  };
  /// The workload's own configuration; durable workloads get a fresh
  /// directory under `scratch_dir`.
  static Config For(const WorkloadSpec& spec, const std::string& scratch_dir);
  /// A directory name under `scratch_dir` no LiveSession has used.
  static std::string NewDir(const std::string& scratch_dir);

  LiveSession(const WorkloadSpec& spec, const Inputs& inputs, Config config,
              ResultObserver* observer);
  ~LiveSession();

  // Callbacks capture `this`.
  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  /// Constructs the session and registers the initial queries.
  Status Start();
  /// Pushes events [fed(), end), editing at every kChurnInterval boundary
  /// when the config churns.
  Status FeedTo(size_t end);
  /// Removes one live query and adds the next pool query (the step list).
  Status Edit();
  Status Finish();
  /// Destroys the session without Finish, then recovers it from the
  /// durability directory; checks that recovery resumes exactly at fed().
  Status CrashAndRecover(double* recover_seconds);

  StreamSession& session() { return *session_; }
  size_t fed() const { return fed_; }
  /// Library calls made: ingest, add/remove, Finish, Recover.
  uint64_t calls() const { return calls_; }
  /// Session construction plus registering every initial query.
  double setup_seconds() const { return setup_seconds_; }
  /// Wall time of every AddQuery/RemoveQuery made by edits, in ms.
  const std::vector<double>& replan_ms() const { return replan_ms_; }

 private:
  StreamSession::Options Options() const;
  StreamSession::ResultCallback Callback(std::shared_ptr<QueryId> tag);
  Status Add(const std::string& sql, bool timed);
  Status Push(size_t begin, size_t end);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const Config config_;
  ResultObserver* const observer_;
  std::unique_ptr<StreamSession> session_;
  std::vector<QueryId> live_;
  size_t fed_ = 0;
  size_t next_step_;
  size_t churned_at_ = 0;
  uint64_t calls_ = 0;
  double setup_seconds_ = 0.0;
  std::vector<double> replan_ms_;
  EventColumns scratch_;
};

}  // namespace e2e
}  // namespace fw

#endif  // FW_BENCH_E2E_LIVE_SESSION_H_
