#include "analysis/scan_runner.hpp"

namespace iwscan::analysis {

ScanOutput run_iw_scan(sim::Network& network, model::InternetModel& internet,
                       const ScanOptions& options) {
  exec::ScanJob job;
  job.probe = options.probe;
  job.probe.protocol = options.protocol;
  job.probe.port = options.protocol == core::ProbeProtocol::Http ? 80 : 443;
  job.rate_pps = options.rate_pps;
  job.sample_fraction = options.sample_fraction;
  job.scan_seed = options.scan_seed;
  job.max_outstanding = options.max_outstanding;
  job.budget = options.budget;
  job.allow = options.popular_space ? internet.registry().popular_space()
                                    : internet.registry().scan_space();
  job.block = options.blocklist;
  job.shards = options.shards;
  job.process_shard = options.process_shard;
  job.process_shards = options.process_shards;
  job.two_phase = options.two_phase;
  job.sweep_rate_pps = options.sweep_rate_pps;
  job.max_promoted_hosts = options.max_promoted_hosts;
  job.spill_dir = options.spill_dir;
  job.spill_segment_bytes = options.spill_segment_bytes;
  job.progress = options.progress;
  job.progress_interval = options.progress_interval;
  return exec::run_scan(job, network, internet);
}

}  // namespace iwscan::analysis
