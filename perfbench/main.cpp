// main.cpp — the repository benchmark binary.
//
//   rtg_perfbench --workload <scale_pipeline|mapped_corpus|service_mixed>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--rev <id>] [--spans-out <file>]
//
// Prints a record line (host, determinism figures, sample counts, the
// first correctness mismatches) and, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// plus the tracing overhead. Exits 1 on any correctness mismatch and 2
// on a usage error. Normally launched through run.py, which builds it.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/latency.hpp"

namespace {

using namespace perfbench;

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":" << quoted(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"id\":" << s.id
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rtg_perfbench: %s\nusage: rtg_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--rev <id>] [--spans-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string rev = "unknown";
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--rev") {
      rev = val;
    } else if (key == "--spans-out") {
      spans_out = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (!(args.seconds > 0) || args.seconds > 600) return usage("--seconds must be in (0, 600]");

  Result r;
  if (args.workload == "scale_pipeline") {
    r = run_scale_pipeline(args);
  } else if (args.workload == "mapped_corpus") {
    r = run_mapped_corpus(args);
  } else if (args.workload == "service_mixed") {
    r = run_service_mixed(args);
  } else {
    return usage("unknown workload");
  }

  // The gated figure is the peak when the timed window ended; the
  // process peak after the checks goes to the record line beside it.
  r.record["peak_rss_mb.process"] = peak_rss_mb();
  if (args.trace) {
    r.record["peak_rss_mb"] = r.window_peak_rss_mb;
  } else {
    r.metrics["peak_rss_mb"] = {r.window_peak_rss_mb, "MB"};
  }
  if (!spans_out.empty() && !r.spans.empty()) write_spans(spans_out, r.spans);

  std::string rec = "{\"record\":{\"workload\":" + quoted(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"seconds\":" + number(args.seconds) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                    ",\"compiler\":" + quoted(std::string("g++ ") + __VERSION__) +
                    ",\"build_type\":" + quoted(RTG_BENCH_BUILD_TYPE) +
                    ",\"rev\":" + quoted(rev) + ",\"serial_parallel_cutoff\":" +
                    std::to_string(rtg::core::serial_parallel_cutoff());
  for (const auto& [key, value] : r.record) rec += "," + quoted(key) + ":" + number(value);
  rec += "},\"mismatches\":[";
  for (std::size_t i = 0; i < r.mismatches.size(); ++i) {
    rec += (i ? "," : "") + quoted(r.mismatches[i]);
  }
  rec += "]}";
  std::printf("%s\n", rec.c_str());

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
