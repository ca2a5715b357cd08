// Umbrella header: the public surface of iwscan.
//
// A reproduction of "Large-Scale Scanning of TCP's Initial Window"
// (Rüth, Bormann, Hohlfeld — IMC 2017). See README.md for the quickstart
// and DESIGN.md for the architecture.
//
// Layering (each header is also individually includable):
//   iwscan::util      — RNG, strings, flags
//   iwscan::net       — IPv4/TCP/ICMP wire codecs
//   iwscan::sim       — event loop, network fabric, packet capture
//   iwscan::tcp       — server-side TCP stack (hosts under test)
//   iwscan::http      — HTTP origin behaviours + message codecs
//   iwscan::tls       — TLS 1.2 first-flight server + codecs
//   iwscan::scan      — ZMap-style engine, targets, probe modules
//   iwscan::core      — the IW estimator, probe strategies, host prober
//   iwscan::model     — the synthetic Internet (AS registry, ground truth)
//   iwscan::exec      — the scan executor: sharded stages, deterministic merge
//   iwscan::analysis  — aggregation, sampling, clustering, reports
#pragma once

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

#include "netbase/checksum.hpp"
#include "netbase/headers.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/packet.hpp"
#include "netbase/tcp_options.hpp"
#include "netbase/wire.hpp"

#include "netsim/capture.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"

#include "tcpstack/config.hpp"
#include "tcpstack/connection.hpp"
#include "tcpstack/host.hpp"
#include "tcpstack/seq.hpp"

#include "httpd/http_message.hpp"
#include "httpd/http_server.hpp"

#include "tls/cert.hpp"
#include "tls/ciphers.hpp"
#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "tls/tls_server.hpp"
#include "tls/tls_server_config.hpp"

#include "scanner/icmp_mtu.hpp"
#include "scanner/permutation.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/syn_scan.hpp"
#include "scanner/targets.hpp"

#include "core/estimator.hpp"
#include "core/host_prober.hpp"
#include "core/probe_strategy.hpp"
#include "core/result.hpp"

#include "inetmodel/as_registry.hpp"
#include "inetmodel/censys_certs.hpp"
#include "inetmodel/internet.hpp"
#include "inetmodel/profiles.hpp"

#include "exec/channel.hpp"
#include "exec/executor.hpp"
#include "exec/progress.hpp"
#include "exec/shard_plan.hpp"
#include "exec/thread_pool.hpp"

#include "analysis/dbscan.hpp"
#include "analysis/iw_table.hpp"
#include "analysis/report.hpp"
#include "analysis/scan_runner.hpp"
#include "analysis/service_classify.hpp"
#include "analysis/subsample.hpp"
#include "analysis/table_writer.hpp"
