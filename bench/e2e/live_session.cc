#include "live_session.h"

#include <algorithm>

#include "common/clock.h"

namespace fw {
namespace e2e {

LiveSession::Config LiveSession::For(const WorkloadSpec& spec,
                                     const std::string& scratch_dir) {
  Config config;
  config.columnar = spec.columnar;
  config.num_shards = spec.num_shards;
  config.durable = spec.durable;
  config.churn = spec.churn;
  if (config.durable) config.dir = NewDir(scratch_dir);
  return config;
}

std::string LiveSession::NewDir(const std::string& scratch_dir) {
  static int next = 0;
  return scratch_dir + "/session-" + std::to_string(next++);
}

LiveSession::LiveSession(const WorkloadSpec& spec, const Inputs& inputs,
                         Config config, ResultObserver* observer)
    : spec_(spec),
      inputs_(inputs),
      config_(std::move(config)),
      observer_(observer),
      next_step_(config_.first_step) {}

LiveSession::~LiveSession() {
  session_.reset();
  if (config_.durable && !config_.dir.empty()) RemoveDir(config_.dir);
}

StreamSession::Options LiveSession::Options() const {
  StreamSession::Options options = SessionOptions(spec_);
  options.num_shards = config_.num_shards;
  if (config_.durable) {
    options.durability.enabled = true;
    options.durability.dir = config_.dir;
    options.durability.snapshot_interval_events = kSnapshotInterval;
  }
  return options;
}

StreamSession::ResultCallback LiveSession::Callback(
    std::shared_ptr<QueryId> tag) {
  return [this, tag](const WindowResult& result) {
    observer_->Observe(*tag, result);
  };
}

Status LiveSession::Start() {
  MonotonicTimer timer;
  session_ = std::make_unique<StreamSession>(Options());
  for (const std::string& sql : inputs_.sql) {
    FW_RETURN_IF_ERROR(Add(sql, /*timed=*/false));
  }
  setup_seconds_ = timer.ElapsedSeconds();
  return Status::OK();
}

Status LiveSession::Add(const std::string& sql, bool timed) {
  // The id is only known once AddQuery returns; no result of the new
  // query can be delivered before then.
  auto tag = std::make_shared<QueryId>(0);
  MonotonicTimer timer;
  Result<QueryId> id = session_->AddQuery(sql, Callback(tag));
  if (timed) replan_ms_.push_back(timer.ElapsedSeconds() * 1e3);
  ++calls_;
  if (!id.ok()) return id.status();
  *tag = *id;
  live_.push_back(*id);
  return Status::OK();
}

Status LiveSession::Edit() {
  const ChurnStep& step = inputs_.steps[next_step_++ % inputs_.steps.size()];
  const size_t victim = step.victim % live_.size();
  MonotonicTimer timer;
  Status status = session_->RemoveQuery(live_[victim]);
  replan_ms_.push_back(timer.ElapsedSeconds() * 1e3);
  ++calls_;
  FW_RETURN_IF_ERROR(status);
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(victim));
  return Add(inputs_.pool_sql[step.pool_index], /*timed=*/true);
}

Status LiveSession::Push(size_t begin, size_t end) {
  if (!config_.columnar) {
    for (size_t i = begin; i < end; ++i) {
      ++calls_;
      FW_RETURN_IF_ERROR(session_->Push(inputs_.events[i]));
    }
    return Status::OK();
  }
  for (size_t i = begin; i < end;) {
    const size_t stop = std::min(end, (i / kBatch + 1) * kBatch);
    ++calls_;
    if (i % kBatch == 0 && stop - i == kBatch) {
      // Whole pre-transposed chunk: transposition is not ingestion.
      FW_RETURN_IF_ERROR(session_->PushColumns(inputs_.chunks[i / kBatch]));
    } else {
      scratch_.clear();
      for (size_t j = i; j < stop; ++j) scratch_.Append(inputs_.events[j]);
      FW_RETURN_IF_ERROR(session_->PushColumns(scratch_));
    }
    i = stop;
  }
  return Status::OK();
}

Status LiveSession::FeedTo(size_t end) {
  end = std::min(end, inputs_.events.size());
  while (fed_ < end) {
    size_t stop = end;
    if (config_.churn) {
      if (fed_ > 0 && fed_ % kChurnInterval == 0 && churned_at_ != fed_) {
        churned_at_ = fed_;
        FW_RETURN_IF_ERROR(Edit());
      }
      stop = std::min(stop, (fed_ / kChurnInterval + 1) * kChurnInterval);
    }
    FW_RETURN_IF_ERROR(Push(fed_, stop));
    fed_ = stop;
  }
  return Status::OK();
}

Status LiveSession::Finish() {
  ++calls_;
  return session_->Finish();
}

Status LiveSession::CrashAndRecover(double* recover_seconds) {
  session_.reset();  // The kill: destructor, no Finish.
  MonotonicTimer timer;
  Result<StreamSession::RecoveryInfo> info = StreamSession::Recover(
      config_.dir, Options(), [this](QueryId id, const StreamQuery&) {
        return Callback(std::make_shared<QueryId>(id));
      });
  *recover_seconds = timer.ElapsedSeconds();
  ++calls_;
  if (!info.ok()) return info.status();
  if (info->durable_events != fed_) {
    return Status::Internal("recovered " +
                            std::to_string(info->durable_events) +
                            " durable events, fed " + std::to_string(fed_));
  }
  session_ = std::move(info->session);
  live_ = session_->QueryIds();
  return Status::OK();
}

}  // namespace e2e
}  // namespace fw
