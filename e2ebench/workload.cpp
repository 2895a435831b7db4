/// \file workload.cpp
/// Seeded input generation, the correctness oracle and the latency
/// summary of the benchmark.

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "device/catalog.hpp"
#include "io/hash.hpp"
#include "scenario/engine.hpp"
#include "scenario/kind_registry.hpp"
#include "scenario/result_io.hpp"

namespace e2ebench {

namespace {

using gf::io::Json;
using gf::scenario::AxisSpec;
using gf::scenario::ScenarioKind;
using gf::scenario::ScenarioSpec;
using gf::scenario::SweepVariable;

/// splitmix64: a tiny generator whose output is fixed by the algorithm,
/// not by the standard library, so a seed means the same inputs with
/// every toolchain.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double between(double low, double high) { return low + (high - low) * uniform(); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Values a user would type: a few significant digits, not a raw draw.
double rounded(double value) {
  const double scale = std::pow(10.0, 2 - std::floor(std::log10(std::abs(value))));
  return std::round(value * scale) / scale;
}

/// The seed varies a spec's values, never its shape: the application
/// count (which sizes per-application output) comes from the spec's slot,
/// so every seed asks for the same amount of work.  Schedules stay within
/// what the breakeven solves accept: the application count times two
/// years must fit one 15-year chip service life.
struct Schedule {
  int app_count = 0;
  double lifetime_years = 0.0;
  double volume = 0.0;
};

Schedule draw_schedule(std::size_t slot, Rng& rng) {
  const int apps = 2 + static_cast<int>(slot % 6);
  return {apps, rounded(rng.between(0.5, 12.0 / apps)),
          rounded(std::pow(10.0, rng.between(4.0, 7.0)))};
}

void vary_schedule(ScenarioSpec& spec, std::size_t slot, Rng& rng) {
  const Schedule schedule = draw_schedule(slot, rng);
  spec.schedule.app_count = schedule.app_count;
  spec.schedule.lifetime_years = schedule.lifetime_years;
  spec.schedule.volume = schedule.volume;
}

/// Long enough that the stream's realized mix (batch share, hit share)
/// is nearly the same for every seed.
constexpr std::size_t kStreamLength = std::size_t{1} << 16;

std::string canonical_body(const ScenarioSpec& spec) {
  return gf::scenario::spec_to_json(spec).dump();
}

/// One hand-written hot spec: the keys it sets beside name, kind, domain
/// and schedule, as JSON text (empty: left to the kind's default).
struct HandWritten {
  std::string_view suffix;
  std::string_view kind;
  std::string_view platforms;
  std::string_view axis;
};

constexpr std::array<HandWritten, 4> kHotShapes = {{
    {"compare", "compare", "", ""},
    {"three-way", "compare", R"(["asic", "fpga", "gpu"])", ""},
    {"breakeven", "breakeven", "", ""},
    {"sweep", "sweep", "",
     R"({ "variable": "app_count", "scale": "linear", "from": 1, "to": 8, "count": 8 })"},
}};

/// A spec as users write it, in the shape of examples/specs/*.json: a
/// comment header, then only the keys the example sets, in its unsorted
/// order (so the parse cannot hash while parsing).  Every other key takes
/// the default `spec_from_json` seeds.
std::string hand_written_body(const std::string& name, const HandWritten& shape,
                              const std::string& domain, const Schedule& schedule) {
  const std::string kind(shape.kind);
  std::string out = "// " + name + ": a " + kind + " scenario for the " + domain +
                    " testcase.\n// Run with:  greenfpga run " + name + ".json\n{\n" +
                    "  \"name\": \"" + name + "\",\n  \"kind\": \"" + kind +
                    "\",\n  \"domain\": \"" + domain + "\",\n";
  if (!shape.platforms.empty()) {
    out += "  \"platforms\": " + std::string(shape.platforms) + ",\n";
  }
  out += "  \"schedule\": { \"app_count\": " + std::to_string(schedule.app_count) +
         ", \"lifetime_years\": " + gf::io::format_number(schedule.lifetime_years) +
         ", \"volume\": " + gf::io::format_number(schedule.volume) + " }";
  if (!shape.axis.empty()) {
    out += ",\n  \"axes\": [\n    " + std::string(shape.axis) + "\n  ]";
  }
  out += "\n}\n";
  return out;
}

/// ~a dozen small specs, each sent both as a user writes it and as its
/// canonical dump, all resident in the cache after the warm pass.  The
/// spec is what the hand-written text decodes to, so both bodies ask for
/// the same result.
void hot_small(Inputs& inputs, Rng& rng) {
  for (const gf::device::Domain domain : gf::device::all_domains()) {
    for (const HandWritten& shape : kHotShapes) {
      const std::size_t slot = inputs.specs.size();
      const std::string name = "hot-" + to_string(domain) + "-" + std::string(shape.suffix);
      std::string body =
          hand_written_body(name, shape, to_string(domain), draw_schedule(slot, rng));
      ScenarioSpec spec = gf::scenario::spec_from_json(
          gf::io::parse_json(body, gf::io::JsonParseOptions{.allow_comments = true}));
      spec.validate();
      inputs.requests.push_back({"/v1/run", std::move(body), slot});
      inputs.requests.push_back({"/v1/run", canonical_body(spec), slot});
      inputs.specs.push_back(std::move(spec));
    }
  }
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    inputs.stream.push_back(rng.below(inputs.requests.size()));
  }
  inputs.run_cache = CacheExpect::hit;
}

/// Distinct Fig. 8-style 50x50 volume x lifetime grids, sent round-robin.
/// The pool exceeds the cache by more than the clients in flight, so a
/// grid is always evicted before it comes round again.
void cold_large(Inputs& inputs, Rng& rng) {
  constexpr std::size_t kPool = kCacheCapacity + 4;
  constexpr int kSide = 50;
  for (std::size_t i = 0; i < kPool; ++i) {
    ScenarioSpec grid = ScenarioSpec::make(ScenarioKind::grid, gf::device::Domain::dnn);
    grid.name = "cold-grid-" + std::to_string(i);
    grid.axes = {
        AxisSpec::log(SweepVariable::volume, rounded(std::pow(10.0, rng.between(2.5, 3.5))),
                      rounded(std::pow(10.0, rng.between(6.5, 7.5))), kSide),
        AxisSpec::linear(SweepVariable::lifetime_years, rounded(rng.between(0.1, 0.5)),
                         rounded(rng.between(2.0, 4.0)), kSide)};
    inputs.requests.push_back({"/v1/run", canonical_body(grid), i});
    inputs.specs.push_back(std::move(grid));
  }
  for (std::size_t i = 0; i < kPool; ++i) {
    inputs.stream.push_back(i);
  }
  inputs.run_cache = CacheExpect::miss;
}

/// Keep a pool spec mid-sized: sampled kinds get small sample counts,
/// axis kinds get modest axes.
void size_for_churn(ScenarioSpec& spec) {
  if (spec.kind == ScenarioKind::sweep) {
    spec.axes = {AxisSpec::linear(SweepVariable::app_count, 1, 12, 12)};
  } else if (spec.kind == ScenarioKind::grid) {
    spec.axes = {AxisSpec::log(SweepVariable::volume, 1e3, 1e7, 10),
                 AxisSpec::linear(SweepVariable::lifetime_years, 0.2, 3.0, 10)};
  } else if (spec.kind == ScenarioKind::montecarlo) {
    spec.montecarlo.samples = 64;
  } else if (spec.kind == ScenarioKind::sensitivity) {
    spec.sensitivity.samples = 32;
  } else if (spec.kind == ScenarioKind::frontier) {
    spec.frontier.confidence_samples = 4;
  } else if (spec.kind == ScenarioKind::fleet) {
    spec.fleet->mc_samples = 16;
  }
}

/// A Zipf-popular pool of mid-sized specs of every registered kind, 3x
/// the cache, with about one request in twenty a `/v1/batch` manifest.
void mixed_churn(Inputs& inputs, Rng& rng) {
  constexpr std::size_t kPool = 3 * kCacheCapacity;
  constexpr std::size_t kManifests = 32;
  constexpr double kZipfExponent = 1.0;
  const auto kinds = gf::scenario::all_kind_modules();
  const auto domains = gf::device::all_domains();
  for (std::size_t i = 0; i < kPool; ++i) {
    const gf::device::Domain domain = domains[(i / kinds.size()) % domains.size()];
    ScenarioSpec spec = ScenarioSpec::make(kinds[i % kinds.size()]->kind, domain);
    spec.name = "churn-" + std::string(kinds[i % kinds.size()]->name) + "-" + std::to_string(i);
    vary_schedule(spec, i, rng);
    size_for_churn(spec);
    inputs.requests.push_back({"/v1/run", canonical_body(spec), i});
    inputs.specs.push_back(std::move(spec));
  }

  // Popularity rank is the pool index: the kinds interleave down the
  // ranking, and every seed puts the same kinds in the hot set.
  std::vector<double> cdf(kPool);
  double total = 0.0;
  for (std::size_t rank = 0; rank < kPool; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    cdf[rank] = total;
  }
  const auto zipf = [&] {
    const double u = rng.uniform() * total;
    return static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end() - 1, u) -
                                    cdf.begin());
  };

  for (std::size_t m = 0; m < kManifests; ++m) {
    std::vector<std::size_t> members(4);
    Json specs = Json::array();
    for (std::size_t& member : members) {
      member = zipf();
      specs.push_back(gf::scenario::spec_to_json(inputs.specs[member]));
    }
    Json manifest = Json::object();
    manifest["name"] = "churn-batch-" + std::to_string(m);
    manifest["specs"] = std::move(specs);
    inputs.requests.push_back({"/v1/batch", manifest.dump(), kPool + m});
    inputs.batches.push_back(std::move(members));
  }
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    inputs.stream.push_back(rng.below(20) == 0 ? kPool + rng.below(kManifests) : zipf());
  }
  inputs.run_cache = CacheExpect::either;
}

/// Case-insensitive header lookup: responses read off a socket carry
/// lowercased names, responses straight from `Router::route` do not.
std::string header(const gf::serve::HttpResponse& response, std::string_view lowercase) {
  for (const auto& [name, value] : response.headers) {
    const bool same = std::equal(name.begin(), name.end(), lowercase.begin(), lowercase.end(),
                                 [](char a, char b) {
                                   return std::tolower(static_cast<unsigned char>(a)) == b;
                                 });
    if (same) {
      return value;
    }
  }
  return {};
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload workload :
       {Workload::hot_small, Workload::cold_large, Workload::mixed_churn}) {
    if (workload_name(workload) == name) {
      return workload;
    }
  }
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  if (workload == Workload::hot_small) {
    return "hot_small";
  }
  return workload == Workload::cold_large ? "cold_large" : "mixed_churn";
}

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs inputs;
  Rng rng(seed);
  if (workload == Workload::hot_small) {
    hot_small(inputs, rng);
  } else if (workload == Workload::cold_large) {
    cold_large(inputs, rng);
  } else {
    mixed_churn(inputs, rng);
  }
  return inputs;
}

std::string wire_request(const Request& request) {
  return "POST " + request.target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
         "Connection: keep-alive\r\nContent-Length: " + std::to_string(request.body.size()) +
         "\r\n\r\n" + request.body;
}

gf::scenario::EngineOptions engine_options(int threads, gf::scenario::ResultCache* cache) {
  gf::scenario::EngineOptions options;
  options.threads = threads;
  options.cache = cache;
  return options;
}

std::string response_body(const Json& result) {
  std::string body;
  result.dump_to(body);
  body.push_back('\n');
  return body;
}

Oracle Oracle::build(const Inputs& inputs) {
  const gf::scenario::Engine engine(engine_options(kEngineThreads));
  Oracle oracle;
  const auto expect = [&oracle](const std::string& body) {
    oracle.expected_.push_back({gf::io::fnv1a64(body), body.size()});
  };
  std::vector<Json> results;  // kept only to assemble batch manifests
  for (const ScenarioSpec& spec : inputs.specs) {
    Json result = gf::scenario::result_to_json(engine.run(spec));
    expect(response_body(result));
    if (!inputs.batches.empty()) {
      results.push_back(std::move(result));
    }
  }
  for (const std::vector<std::size_t>& members : inputs.batches) {
    Json array = Json::array();
    for (const std::size_t member : members) {
      array.push_back(results[member]);
    }
    expect(response_body(array));
  }
  return oracle;
}

std::string Oracle::mismatch(const Request& request, const gf::serve::HttpResponse& response,
                             CacheExpect cache) const {
  if (response.status != 200) {
    return "status " + std::to_string(response.status) + " for " + request.target + ": " +
           response.body.substr(0, 200);
  }
  const Expected& expected = expected_.at(request.expected);
  if (response.body.size() != expected.size ||
      gf::io::fnv1a64(response.body) != expected.digest) {
    return "body of " + request.target + " differs from the oracle (" +
           std::to_string(response.body.size()) + " bytes, expected " +
           std::to_string(expected.size) + ")";
  }
  if (request.target == "/v1/run") {
    const std::string x_cache = header(response, "x-cache");
    const bool wrong = (x_cache != "hit" && x_cache != "miss") ||
                       (cache == CacheExpect::hit && x_cache != "hit") ||
                       (cache == CacheExpect::miss && x_cache != "miss");
    if (wrong) {
      return "X-Cache '" + x_cache + "'";
    }
  }
  return {};
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, sorted.size() - 1);
  return sorted[low] + (sorted[high] - sorted[low]) * (position - static_cast<double>(low));
}

LoadSummary summarize(const std::vector<Completion>& completions, double window_s) {
  if (completions.empty() || !(window_s > 0.0)) {
    throw std::invalid_argument("summarize: no completions");
  }
  LoadSummary summary;
  summary.samples = completions.size();

  summary.slices = std::max<std::size_t>(1, static_cast<std::size_t>(window_s));
  const double slice_s = window_s / static_cast<double>(summary.slices);
  std::vector<std::vector<double>> slices(summary.slices);
  for (const Completion& completion : completions) {
    const auto slice = static_cast<std::size_t>(completion.done_s / slice_s);
    slices[std::min(slice, summary.slices - 1)].push_back(completion.latency_ms);
  }
  std::vector<double> rates;
  std::vector<double> medians;
  for (const std::vector<double>& slice : slices) {
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
    if (!slice.empty()) {
      medians.push_back(median(slice));
    }
  }
  summary.throughput_rps = median(std::move(rates));
  summary.p50 = median(std::move(medians));

  const std::size_t n = completions.size();
  const std::size_t window = std::min(n, kTailWindow);
  std::vector<double> tails;
  summary.beyond_p99 = n;
  for (std::size_t first = 0; first + window <= n; first += kTailStep) {
    std::vector<double> sorted;
    for (std::size_t i = first; i < first + window; ++i) {
      sorted.push_back(completions[i].latency_ms);
    }
    std::sort(sorted.begin(), sorted.end());
    const double tail = percentile(sorted, 0.99);
    tails.push_back(tail);
    summary.beyond_p99 = std::min(
        summary.beyond_p99, static_cast<std::size_t>(
                                sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), tail)));
  }
  summary.windows = tails.size();
  summary.p99 = median(std::move(tails));
  return summary;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile(samples, 0.5);
}

}  // namespace e2ebench
