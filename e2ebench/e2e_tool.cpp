// Helper binary of the end-to-end benchmark (e2ebench/run.py).
//
//   e2e_tool op --program P --scale S --seed N --threads T --pin 0|1
//     One plain, record or replay operation of one program, configured
//     only through the REOMP_* environment (REOMP_MODE, REOMP_STRATEGY,
//     REOMP_DIR, REOMP_TRACE_COMPRESS, ...), the way a user runs the tool.
//     Prints one JSON line: checksum (bit-exact, as a hex float), gated
//     events, the timed run, and for a dir-backed record run the entries
//     decoded back from the trace files.
//
//   e2e_tool layers --section romp|gate|openfin|recorded|lz
//                   [--strategy st|dc|de] [--dir DIR]... --threads T
//                   --pin 0|1 --gate-iters N --reps R --scratch DIR
//     Times the public calls into one layer from outside (romp Team, core
//     Engine, trace reader/writer/decoder, common LZ codec) and prints one
//     JSON object with the metrics and the spans that produced them. The
//     --dir arguments are one pass's recordings.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/app_common.hpp"
#include "src/apps/registry.hpp"
#include "src/apps/synthetic.hpp"
#include "src/common/affinity.hpp"
#include "src/common/lz.hpp"
#include "src/common/waiter.hpp"
#include "src/core/bundle.hpp"
#include "src/core/engine.hpp"
#include "src/core/options.hpp"
#include "src/romp/team.hpp"
#include "src/trace/byte_io.hpp"
#include "src/trace/decoded_schedule.hpp"
#include "src/trace/record_stream.hpp"
#include "src/trace/trace_dir.hpp"

namespace {

using namespace reomp;
namespace fs = std::filesystem;
using core::Engine;
using core::Mode;
using core::Options;
using core::Strategy;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Minimal argv parser: "--key value" pairs; repeated keys accumulate.
struct Args {
  std::multimap<std::string, std::string> kv;

  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::invalid_argument(std::string("bad argument ") + argv[i]);
      }
      kv.emplace(argv[i] + 2, argv[i + 1]);
    }
    if ((argc - first) % 2 != 0) {
      throw std::invalid_argument("arguments must be --key value pairs");
    }
  }
  std::string get(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  std::vector<std::string> all(const std::string& k) const {
    std::vector<std::string> out;
    auto [lo, hi] = kv.equal_range(k);
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
    return out;
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------- traces

/// A trace directory's streams: stem ("shared", "t0", ...) -> segment
/// files in window order (one file for an unwindowed recording).
struct Stream {
  bool windowed = false;
  std::vector<std::pair<std::uint64_t, std::string>> files;
};

std::map<std::string, Stream> streams_in(const std::string& dir) {
  std::map<std::string, Stream> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() < 5 || name.compare(name.size() - 4, 4, ".rec") != 0) {
      continue;
    }
    const auto window = trace::parse_window_index(name);
    std::string stem = name.substr(0, name.size() - 4);
    if (window) stem = stem.substr(0, stem.rfind(".w"));
    Stream& s = out[stem];
    s.windowed = s.windowed || window.has_value();
    s.files.emplace_back(window.value_or(0), e.path().string());
  }
  for (auto& [stem, s] : out) std::sort(s.files.begin(), s.files.end());
  return out;
}

/// Streaming read of one stream (the RecordReader path); returns entries.
std::uint64_t read_stream(const Stream& s) {
  std::uint64_t n = 0;
  if (!s.windowed) {
    trace::FileSource src(s.files.front().second);
    trace::RecordReader reader(src);
    while (reader.next()) ++n;
    return n;
  }
  std::vector<std::unique_ptr<trace::ByteSource>> segments;
  for (const auto& f : s.files) {
    segments.push_back(std::make_unique<trace::FileSource>(f.second));
  }
  trace::RecordReader reader(std::move(segments), false, 0);
  while (reader.next()) ++n;
  return n;
}

/// Bulk decode of one stream (the replay prefetch path).
trace::DecodedSchedule decode_stream(const Stream& s) {
  if (!s.windowed) {
    trace::FileSource src(s.files.front().second);
    return trace::DecodedSchedule::decode_all(
        src, fs::file_size(s.files.front().second));
  }
  trace::DecodedSchedule sched;
  for (std::size_t i = 0; i < s.files.size(); ++i) {
    trace::FileSource src(s.files[i].second);
    trace::DecodedSchedule::append_segment_source(
        sched, src, fs::file_size(s.files[i].second), sched.entries.size(),
        false, i + 1 == s.files.size());
  }
  return sched;
}

// -------------------------------------------------------------------- op

const apps::AppInfo& program_by_name(const std::string& name) {
  for (const auto& p : apps::synthetic_benchmarks()) {
    if (p.name == name) return p;
  }
  return apps::app_by_name(name);
}

int cmd_op(const Args& a) {
  apps::RunConfig cfg;
  cfg.threads = static_cast<std::uint32_t>(std::stoul(a.get("threads")));
  cfg.seed = std::stoull(a.get("seed"));
  cfg.scale = std::stod(a.get("scale"));
  cfg.pin_threads = a.get("pin") == "1";
  cfg.engine = Options::from_env(cfg.threads);
  const apps::AppInfo& program = program_by_name(a.get("program"));

  const std::int64_t t0 = now_ns();
  const apps::RunResult r = program.run(cfg);
  const std::int64_t t1 = now_ns();

  // Entries decoded back from the record run's files (outside the timing).
  std::int64_t decoded = -1;
  if (cfg.engine.mode == Mode::kRecord && !cfg.engine.dir.empty()) {
    decoded = 0;
    for (const auto& [stem, s] : streams_in(cfg.engine.dir)) {
      decoded += static_cast<std::int64_t>(read_stream(s));
    }
  }
  std::printf(
      "{\"program\": \"%s\", \"mode\": \"%s\", \"strategy\": \"%s\", "
      "\"checksum\": \"%a\", \"checksum_value\": %.17g, \"events\": %" PRIu64
      ", \"decoded_entries\": %" PRId64 ", \"elapsed_s\": %.9f, \"t0_ns\": %" PRId64
      ", \"t1_ns\": %" PRId64 "}\n",
      program.name.c_str(), std::string(core::to_string(cfg.engine.mode)).c_str(),
      std::string(core::to_string(cfg.engine.strategy)).c_str(), r.checksum,
      r.checksum, r.gated_events, decoded, static_cast<double>(t1 - t0) * 1e-9,
      t0, t1);
  return 0;
}

// ---------------------------------------------------------------- layers

/// Spans kept in memory and printed at exit: name, parent, start, end.
struct Tracer {
  struct Span {
    std::string name;
    int parent;
    std::int64_t t0;
    std::int64_t t1;
  };
  std::vector<Span> spans;
  std::vector<int> open;

  /// Time `fn` as a span; returns its duration in seconds.
  template <typename Fn>
  double span(const std::string& name, Fn&& fn) {
    const int idx = static_cast<int>(spans.size());
    spans.push_back({name, open.empty() ? -1 : open.back(), now_ns(), 0});
    open.push_back(idx);
    fn();
    open.pop_back();
    spans[idx].t1 = now_ns();
    return static_cast<double>(spans[idx].t1 - spans[idx].t0) * 1e-9;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Launch `threads` workers (worker k pinned to cpu k when asked) running
/// `body(tid)`, released together; returns the seconds from release to the
/// last join.
double run_pool(std::uint32_t threads, bool pin,
                const std::function<void(core::ThreadId)>& body) {
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  auto wrapped = [&](core::ThreadId tid) {
    if (pin) pin_current_thread(tid);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    body(tid);
  };
  std::vector<std::thread> pool;
  for (core::ThreadId tid = 1; tid < threads; ++tid) {
    pool.emplace_back([&wrapped, tid] {
      ThreadCensus::Scope census;
      wrapped(tid);
    });
  }
  while (ready.load() != threads - 1) std::this_thread::yield();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  wrapped(0);
  for (auto& t : pool) t.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The data_race mix (a gated load then a gated store per iteration),
/// driven straight through Engine::gate_in/gate_out.
double drive_mix(Engine& eng, std::uint32_t threads, bool pin,
                 std::uint64_t iters) {
  const core::GateId g = eng.register_gate("sum");
  std::atomic<std::uint64_t> sum{0};
  return run_pool(threads, pin, [&](core::ThreadId tid) {
    core::ThreadCtx& ctx = eng.bind_thread(tid);
    for (std::uint64_t i = 0; i < iters; ++i) {
      const std::uint64_t v = eng.sma_load(ctx, g, sum);
      eng.sma_store(ctx, g, sum, v + 1);
    }
  });
}

struct Layers {
  std::map<std::string, double> metrics;
  Tracer tr;
  std::uint32_t threads = 2;
  bool pin = true;
  std::uint64_t gate_iters = 100000;
  int reps = 5;
  std::string scratch;
  Options base;  // the REOMP_* environment: codec, windowing

  Options opts(Mode mode, Strategy s) const {
    Options o = base;
    o.mode = mode;
    o.strategy = s;
    o.num_threads = threads;
    o.dir.clear();
    return o;
  }

  void gate(Strategy s, const std::string& tag) {
    std::vector<double> rec_ns, rep_ns;
    for (int r = 0; r < reps; ++r) {
      core::RecordBundle bundle;
      std::uint64_t events = 0;
      Options ro = opts(Mode::kRecord, s);
      ro.trace_window_events = 0;  // windows need a trace dir
      tr.span("core.gate_record." + tag, [&] {
        Engine eng(ro);
        const double secs = drive_mix(eng, threads, pin, gate_iters);
        eng.finalize();
        events = eng.total_events();
        bundle = eng.take_bundle();
        rec_ns.push_back(secs * 1e9 / static_cast<double>(events));
      });
      Options po = opts(Mode::kReplay, s);
      po.bundle = &bundle;
      tr.span("core.gate_replay." + tag, [&] {
        Engine eng(po);
        const double secs = drive_mix(eng, threads, pin, gate_iters);
        eng.finalize();
        if (eng.total_events() != events) {
          throw std::runtime_error("gate replay of " + tag + " ran " +
                                   std::to_string(eng.total_events()) +
                                   " events, record holds " +
                                   std::to_string(events));
        }
        rep_ns.push_back(secs * 1e9 / static_cast<double>(events));
      });
    }
    metrics["core.gate_record_ns." + tag] = median(rec_ns);
    metrics["core.gate_replay_ns." + tag] = median(rep_ns);
  }

  void open_and_finalize(Strategy s, const std::string& tag) {
    std::vector<double> open_ms, fin_ms;
    for (int r = 0; r < reps; ++r) {
      Options o = opts(Mode::kRecord, s);
      o.dir = scratch + "/layers_" + tag;
      std::unique_ptr<Engine> eng;
      open_ms.push_back(
          1e3 * tr.span("core.record_open." + tag,
                        [&] { eng = std::make_unique<Engine>(o); }));
      drive_mix(*eng, threads, pin, gate_iters);
      fin_ms.push_back(1e3 * tr.span("core.finalize." + tag,
                                     [&] { eng->finalize(); }));
    }
    metrics["core.finalize_ms." + tag] = median(fin_ms);
    // Record-side set-up does not depend on the strategy much; DE's is
    // the default configuration's and the one reported.
    if (s == Strategy::kDE) metrics["core.record_open_ms"] = median(open_ms);
  }

  void recorded(Strategy s, const std::string& tag,
                const std::vector<std::string>& dirs) {
    double open_ms = 0, decode_ms = 0, read_ms = 0, encode_ms = 0;
    std::uint64_t entries = 0, raw = 0, wire = 0;
    for (const std::string& dir : dirs) {
      Options o = opts(Mode::kReplay, s);
      o.dir = dir;
      o.replay_stall_timeout_ms = 0;  // never driven: no supervisor
      {
        std::unique_ptr<Engine> eng;
        open_ms += 1e3 * tr.span("core.replay_open." + tag,
                                 [&] { eng = std::make_unique<Engine>(o); });
      }
      for (const auto& [stem, st] : streams_in(dir)) {
        trace::DecodedSchedule sched;
        decode_ms += 1e3 * tr.span("trace.decode." + tag,
                                   [&] { sched = decode_stream(st); });
        std::uint64_t n = 0;
        read_ms += 1e3 * tr.span("trace.stream_read." + tag,
                                 [&] { n = read_stream(st); });
        if (n != sched.entries.size()) {
          throw std::runtime_error(dir + "/" + stem + ": reader saw " +
                                   std::to_string(n) + " entries, decoder " +
                                   std::to_string(sched.entries.size()));
        }
        entries += n;
        trace::MemorySink sink;
        encode_ms += 1e3 * tr.span("trace.encode." + tag, [&] {
          trace::RecordWriter w(sink, base.trace_format,
                                base.trace_chunk_bytes, 0,
                                base.trace_compress);
          w.append_batch(sched.entries.data(), sched.entries.size());
          w.finish();
          raw += w.raw_bytes();
          wire += w.wire_bytes();
        });
      }
    }
    metrics["core.replay_open_ms." + tag] = open_ms;
    metrics["trace.decode_ms." + tag] = decode_ms;
    metrics["trace.stream_read_ms." + tag] = read_ms;
    metrics["trace.encode_ms." + tag] = encode_ms;
    metrics["trace.entries." + tag] = static_cast<double>(entries);
    metrics["trace.raw_bytes." + tag] = static_cast<double>(raw);
    metrics["trace.wire_bytes." + tag] = static_cast<double>(wire);
  }

  /// LZ codec throughput over one pass's recorded entries, re-encoded as
  /// raw (uncompressed v2) chunk bytes and cut at the default chunk size.
  void lz(const std::vector<std::string>& dirs) {
    constexpr std::size_t kBlock = std::size_t{1} << 16;
    std::vector<std::uint8_t> input;
    for (const std::string& dir : dirs) {
      for (const auto& [stem, st] : streams_in(dir)) {
        const trace::DecodedSchedule sched = decode_stream(st);
        trace::MemorySink sink;
        trace::RecordWriter w(sink);
        w.append_batch(sched.entries.data(), sched.entries.size());
        w.finish();
        input.insert(input.end(), sink.bytes().begin(), sink.bytes().end());
      }
    }
    const std::size_t n = input.size();
    if (n == 0) throw std::runtime_error("no recorded bytes for the LZ codec");
    std::vector<std::uint8_t> packed(lz_max_compressed_size(n) + 64 * (n / kBlock + 1));
    std::vector<std::uint8_t> back(n);
    std::vector<std::pair<std::size_t, std::size_t>> blocks;  // offset, size
    std::vector<double> comp, decomp;
    for (int r = 0; r < reps; ++r) {
      LzEncoder enc;
      blocks.clear();
      comp.push_back(tr.span("common.lz_compress", [&] {
        std::size_t out = 0;
        for (std::size_t off = 0; off < n; off += kBlock) {
          const std::size_t len = std::min(kBlock, n - off);
          const std::size_t c = enc.compress(input.data() + off, len,
                                             packed.data() + out);
          blocks.emplace_back(out, c);
          out += c;
        }
      }));
      decomp.push_back(tr.span("common.lz_decompress", [&] {
        std::size_t off = 0;
        for (const auto& [at, c] : blocks) {
          const std::size_t len = std::min(kBlock, n - off);
          if (!lz_decompress(packed.data() + at, c, back.data() + off, len)) {
            throw std::runtime_error("lz_decompress refused its own output");
          }
          off += len;
        }
      }));
      if (back != input) {
        throw std::runtime_error("LZ round trip changed the bytes");
      }
    }
    const double mb = static_cast<double>(n) / 1e6;
    metrics["common.lz_compress_MBps"] = mb / median(comp);
    metrics["common.lz_decompress_MBps"] = mb / median(decomp);
  }

  void romp_layer() {
    constexpr int kRegions = 2000;
    constexpr int kBarriers = 2000;
    romp::TeamOptions topt;
    topt.num_threads = threads;
    topt.pin_threads = pin;
    std::vector<double> setup, region, barrier;
    for (int r = 0; r < reps; ++r) {
      setup.push_back(tr.span("romp.team_setup", [&] {
        romp::Team team(topt);
        team.parallel([](romp::WorkerCtx&) {});
        team.finalize();
      }));
      romp::Team team(topt);
      team.parallel([](romp::WorkerCtx&) {});  // workers up
      region.push_back(tr.span("romp.region", [&] {
        for (int i = 0; i < kRegions; ++i) {
          team.parallel([](romp::WorkerCtx&) {});
        }
      }) / kRegions);
      barrier.push_back(tr.span("romp.barrier", [&] {
        team.parallel([&](romp::WorkerCtx& w) {
          for (int i = 0; i < kBarriers; ++i) team.barrier(w);
        });
      }) / kBarriers);
      team.finalize();
    }
    metrics["romp.team_setup_ms"] = 1e3 * median(setup);
    metrics["romp.region_us"] = 1e6 * median(region);
    metrics["romp.barrier_us"] = 1e6 * median(barrier);
  }
};

int cmd_layers(const Args& a) {
  Layers L;
  L.threads = static_cast<std::uint32_t>(std::stoul(a.get("threads")));
  L.pin = a.get("pin") == "1";
  L.gate_iters = std::stoull(a.get("gate-iters"));
  L.reps = std::stoi(a.get("reps"));
  L.scratch = a.get("scratch");
  L.base = Options::from_env(L.threads);

  const std::string section = a.get("section");
  if (section == "romp") {
    L.tr.span("romp", [&] { L.romp_layer(); });
  } else if (section == "lz") {
    L.tr.span("common", [&] { L.lz(a.all("dir")); });
  } else {
    const std::string tag = a.get("strategy");
    const std::map<std::string, Strategy> by_tag = {
        {"st", Strategy::kST}, {"dc", Strategy::kDC}, {"de", Strategy::kDE}};
    const Strategy s = by_tag.at(tag);
    if (section == "gate") {
      L.tr.span("core", [&] { L.gate(s, tag); });
    } else if (section == "openfin") {
      L.tr.span("core", [&] { L.open_and_finalize(s, tag); });
    } else if (section == "recorded") {
      L.tr.span("trace", [&] { L.recorded(s, tag, a.all("dir")); });
    } else {
      throw std::invalid_argument("unknown --section " + section);
    }
  }

  std::printf("{\"metrics\": {");
  bool first = true;
  for (const auto& [k, v] : L.metrics) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}, \"spans\": [");
  for (std::size_t i = 0; i < L.tr.spans.size(); ++i) {
    const auto& s = L.tr.spans[i];
    std::printf("%s{\"name\": \"%s\", \"parent\": %d, \"t0\": %" PRId64
                ", \"t1\": %" PRId64 "}",
                i == 0 ? "" : ", ", json_escape(s.name).c_str(), s.parent,
                s.t0, s.t1);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const Args a(argc, argv, 2);
    if (cmd == "op") return cmd_op(a);
    if (cmd == "layers") return cmd_layers(a);
    std::fprintf(stderr, "usage: e2e_tool op|layers --key value ...\n");
    return 64;
  } catch (const std::exception& e) {
    std::printf("{\"error\": \"%s\"}\n", json_escape(e.what()).c_str());
    return 2;
  }
}
