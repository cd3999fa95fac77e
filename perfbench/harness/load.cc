#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "core/lattice.h"
#include "core/shapley.h"
#include "obs/json.h"
#include "proc.h"

namespace perfbench {
namespace {

using divexp::PatternTable;

// Pool sizes and Zipf exponents. With the fixed request count of a
// serving window, which starts on an empty cache, they set the share of
// cache misses per class: about a third of lookups and a quarter of
// scans miss (4,000 requests), so p50 is a cache hit and p90 a miss on
// every workload, each well away from the hit/miss boundary where a
// percentile would jump between the two.
constexpr size_t kItemsetPool = 100000;
constexpr size_t kMinLen = 2;  // itemset lengths of lookups
constexpr size_t kMaxLen = 6;
constexpr uint64_t kTopkOrderSeed = 17;
constexpr double kItemsetZipf = 1.2;
constexpr double kTopkZipf = 1.2;
constexpr double kBrowseShare = 0.4;
constexpr double kShapleyShare = 0.4;  // the rest are topk scans
constexpr size_t kSampleEvery = 16;
constexpr size_t kSamplesPerVerb = 24;

// Item labels end up inside a whitespace-separated, comma-joined
// request token; skip itemsets whose labels would not survive that.
bool SafeLabel(const std::string& s) {
  return !s.empty() && s.find_first_of(" ,\t\n") == std::string::npos;
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kTopk:
      return "topk";
    case Verb::kBrowse:
      return "browse";
    case Verb::kShapley:
      return "shapley";
  }
  return "?";
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(std::mt19937_64* rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

RequestMix::RequestMix(const divexp::serve::TableView& view, uint64_t seed)
    : itemset_zipf_(1, 1.0), topk_zipf_(1, 1.0) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);

  static constexpr const char* kKeys[] = {"divergence", "significance",
                                          "support"};
  static constexpr PatternTable::RankKey kKeyIds[] = {
      PatternTable::RankKey::kDivergence,
      PatternTable::RankKey::kSignificance, PatternTable::RankKey::kSupport};
  for (size_t key = 0; key < 3; ++key) {
    for (const bool desc : {true, false}) {
      for (size_t min_len = 1; min_len <= 6; ++min_len) {
        for (int s = 0; s < 28; ++s) {
          char support[16];
          std::snprintf(support, sizeof(support), "%.2f",
                        s == 0 ? 0.0 : 0.01 + 0.01 * s);
          Request r;
          r.verb = Verb::kTopk;
          r.topk.k = 10;
          r.topk.key = kKeyIds[key];
          r.topk.descending = desc;
          r.topk.min_len = min_len;
          r.topk.min_support = std::strtod(support, nullptr);
          r.line = std::string("topk k=10 key=") + kKeys[key] +
                   " order=" + (desc ? "desc" : "asc") +
                   " min_len=" + std::to_string(min_len) +
                   " min_support=" + support;
          topk_.push_back(std::move(r));
        }
      }
    }
  }
  // The same popularity order for every seed: with Zipf(1.2) the top
  // few parameterizations take a large share of the scans, and which
  // ones they are would otherwise move the scan percentiles from seed to
  // seed.
  std::shuffle(topk_.begin(), topk_.end(), std::mt19937_64(kTopkOrderSeed));

  const divexp::ItemCatalog& catalog = *view.catalog;
  std::vector<bool> safe(catalog.num_items());
  for (uint32_t id = 0; id < catalog.num_items(); ++id) {
    const divexp::ItemInfo& info = catalog.item(id);
    safe[id] = SafeLabel(info.value) &&
               SafeLabel(catalog.attribute_name(info.attribute)) &&
               catalog.attribute_name(info.attribute).find('=') ==
                   std::string::npos;
  }
  // Candidate rows by itemset length.
  std::vector<uint32_t> candidates[kMaxLen + 1];
  size_t total = 0;
  for (size_t i = 0; i < view.size(); ++i) {
    const divexp::ItemSpan items = view.row_items(i);
    if (items.size() < kMinLen || items.size() > kMaxLen) continue;
    if (std::all_of(items.begin(), items.end(), [&](uint32_t id) {
          return id < safe.size() && safe[id];
        })) {
      candidates[items.size()].push_back(static_cast<uint32_t>(i));
      ++total;
    }
  }
  // Pool rank r gets the length furthest behind its share of the
  // candidates after r + 1 picks, and a seeded random row of that
  // length. Response size and cost grow with the length, and the top
  // ranks take a large share of the lookups, so their lengths follow
  // the table's mix in a fixed order rather than the seed's draw.
  size_t taken[kMaxLen + 1] = {};
  const size_t pool = std::min(kItemsetPool, total);
  for (size_t rank = 0; rank < pool; ++rank) {
    size_t len = 0;
    double behind = 0.0;
    for (size_t l = kMinLen; l <= kMaxLen; ++l) {
      if (taken[l] == candidates[l].size()) continue;
      const double due = static_cast<double>(candidates[l].size()) *
                             static_cast<double>(rank + 1) /
                             static_cast<double>(total) -
                         static_cast<double>(taken[l]);
      if (len == 0 || due > behind) {
        len = l;
        behind = due;
      }
    }
    std::vector<uint32_t>& rows = candidates[len];
    const size_t i = taken[len]++;
    std::swap(rows[i], rows[i + rng() % (rows.size() - i)]);
    Request r;
    std::string spec;
    for (const uint32_t id : view.row_items(rows[i])) {
      const divexp::ItemInfo& info = catalog.item(id);
      r.items.emplace_back(catalog.attribute_name(info.attribute),
                           info.value);
      if (!spec.empty()) spec += ',';
      spec += r.items.back().first + "=" + r.items.back().second;
    }
    r.line = " items=" + spec;  // the verb is prepended at draw time
    itemsets_.push_back(std::move(r));
  }
  itemset_zipf_ = ZipfSampler(std::max<size_t>(itemsets_.size(), 1),
                              kItemsetZipf);
  topk_zipf_ = ZipfSampler(topk_.size(), kTopkZipf);
}

std::mt19937_64 RequestMix::ClientRng(uint64_t seed, size_t stream) {
  return std::mt19937_64(seed * 1000003ull + stream + 1);
}

Request RequestMix::Draw(std::mt19937_64* rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  if (u >= kBrowseShare + kShapleyShare || itemsets_.empty()) {
    return topk_[topk_zipf_.Draw(rng)];
  }
  Request r = itemsets_[itemset_zipf_.Draw(rng)];
  r.verb = u < kBrowseShare ? Verb::kBrowse : Verb::kShapley;
  r.line = VerbName(r.verb) + r.line;
  return r;
}

void LoadResult::Append(LoadResult&& window) {
  lookup_ms.insert(lookup_ms.end(), window.lookup_ms.begin(),
                   window.lookup_ms.end());
  scan_ms.insert(scan_ms.end(), window.scan_ms.begin(), window.scan_ms.end());
  attempted += window.attempted;
  failed += window.failed;
  window_qps.insert(window_qps.end(), window.window_qps.begin(),
                    window.window_qps.end());
  for (Sample& s : window.samples) samples.push_back(std::move(s));
}

LoadResult RunClosedLoop(const std::string& socket_path, pid_t daemon,
                         const std::vector<int>& cpus,
                         const RequestMix& mix, uint64_t seed,
                         size_t first_stream, size_t clients,
                         uint64_t requests, double max_seconds) {
  using Clock = std::chrono::steady_clock;
  // Connect the clients one at a time, each with an uncached `stats`
  // handshake. The daemon thread that left accept() meanwhile serves
  // that client. If every such thread is found, each client and its
  // thread get one CPU of their own, so the wake-ups between them never
  // cross to another vCPU. Before each connect, wait up to a second for
  // every idle thread to be in accept(): a fresh daemon's threads may
  // not have got there yet, and one may still be closing the connection
  // WaitForSocket probed with. (Clients and daemon threads are equal in
  // number.)
  std::vector<std::unique_ptr<LineClient>> conns;
  std::vector<pid_t> servers;
  for (size_t c = 0; c < clients; ++c) {
    std::vector<pid_t> before;
    for (int tries = 0; AcceptingThreads(daemon, &before) &&
                        before.size() < clients - c && tries < 5000;
         ++tries) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    conns.push_back(std::make_unique<LineClient>());
    std::string response;
    if (!conns.back()->Connect(socket_path) ||
        !conns.back()->Request("stats", &response) || !IsOk(response)) {
      conns.back().reset();  // counted as a failed request below
      continue;
    }
    std::vector<pid_t> after;
    AcceptingThreads(daemon, &after);
    for (const pid_t tid : before) {
      if (std::find(after.begin(), after.end(), tid) == after.end()) {
        servers.push_back(tid);
      }
    }
  }
  bool paired = servers.size() == clients && cpus.size() >= clients;
  for (size_t c = 0; paired && c < clients; ++c) {
    paired = PinThread(servers[c], cpus[c]);
  }
  if (!paired) {
    std::cerr << "serving: clients not paired with daemon threads; they "
                 "share the serving CPUs\n";
  }

  LoadResult total;
  std::mutex mu;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(max_seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult mine;
      const uint64_t quota = requests / clients + (c < requests % clients);
      std::mt19937_64 rng = mix.ClientRng(seed, first_stream + c);
      size_t seen[3] = {0, 0, 0};
      size_t kept[3] = {0, 0, 0};
      if (paired) PinThread(0, cpus[c]);
      LineClient* client = conns[c].get();
      if (client == nullptr) {
        mine.attempted = mine.failed = 1;
      } else {
        std::string response;
        while (mine.attempted < quota && Clock::now() < deadline) {
          Request request = mix.Draw(&rng);
          const auto t0 = Clock::now();
          const bool sent = client->Request(request.line, &response);
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
          ++mine.attempted;
          if (!sent) {  // the connection is gone; stop this client
            ++mine.failed;
            break;
          }
          if (!IsOk(response)) ++mine.failed;
          (request.verb == Verb::kTopk ? mine.scan_ms : mine.lookup_ms)
              .push_back(ms);
          const size_t v = static_cast<size_t>(request.verb);
          if (seen[v]++ % kSampleEvery == 0 && kept[v] < kSamplesPerVerb) {
            ++kept[v];
            mine.samples.push_back(Sample{std::move(request), response});
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      total.Append(std::move(mine));
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  total.window_qps.push_back(
      static_cast<double>(total.lookup_ms.size() + total.scan_ms.size()) /
      elapsed_s);
  return total;
}

std::string Oracle::Response(const Request& request) {
  const PatternTable& table = *table_;
  divexp::obs::JsonWriter json;
  const auto error = [](const divexp::Status& status) {
    return "{\"ok\":false,\"oracle_error\":\"" + status.ToString() + "\"}";
  };

  if (request.verb == Verb::kTopk) {
    const divexp::serve::TopKQuery& q = request.topk;
    std::vector<size_t> rows;
    if (q.key == PatternTable::RankKey::kDivergence) {
      rows = table.TopK(q.k, q.descending, q.min_support, q.min_len,
                        q.max_len);
    } else {
      const std::pair<int, bool> id(static_cast<int>(q.key), q.descending);
      auto it = std::find_if(ranks_.begin(), ranks_.end(),
                             [&](const auto& e) { return e.first == id; });
      if (it == ranks_.end()) {
        ranks_.emplace_back(id, table.Rank(q.key, q.descending));
        it = ranks_.end() - 1;
      }
      for (const size_t i : it->second) {
        const divexp::PatternRow& r = table.row(i);
        if (r.support < q.min_support || r.items.size() < q.min_len) continue;
        if (q.max_len != 0 && r.items.size() > q.max_len) continue;
        rows.push_back(i);
        if (rows.size() == q.k) break;
      }
    }
    json.BeginObject().Key("ok").Value(true).Key("rows").BeginArray();
    for (const size_t i : rows) {
      const divexp::PatternRow& r = table.row(i);
      json.BeginObject()
          .Key("items")
          .Value(table.ItemsetName(r.items))
          .Key("support")
          .Value(r.support)
          .Key("rate")
          .Value(r.rate)
          .Key("divergence")
          .Value(r.divergence)
          .Key("t")
          .Value(r.t)
          .EndObject();
    }
    json.EndArray().EndObject();
    return json.str();
  }

  divexp::Result<divexp::Itemset> items = table.ParseItemset(request.items);
  if (!items.ok()) return error(items.status());

  if (request.verb == Verb::kBrowse) {
    divexp::Result<divexp::Lattice> lattice =
        divexp::BuildLattice(table, items.value());
    if (!lattice.ok()) return error(lattice.status());
    json.BeginObject()
        .Key("ok")
        .Value(true)
        .Key("target")
        .Value(table.ItemsetName(lattice.value().target))
        .Key("nodes")
        .BeginArray();
    for (const divexp::LatticeNode& node : lattice.value().nodes) {
      json.BeginObject()
          .Key("items")
          .Value(table.ItemsetName(node.items))
          .Key("level")
          .Value(static_cast<uint64_t>(node.level))
          .Key("divergence")
          .Value(node.divergence)
          .Key("t")
          .Value(node.t)
          .Key("corrective")
          .Value(node.corrective)
          .EndObject();
    }
    json.EndArray().Key("edges").BeginArray();
    for (const divexp::LatticeEdge& edge : lattice.value().edges) {
      json.BeginObject()
          .Key("from")
          .Value(static_cast<uint64_t>(edge.from))
          .Key("to")
          .Value(static_cast<uint64_t>(edge.to))
          .EndObject();
    }
    json.EndArray().EndObject();
    return json.str();
  }

  divexp::Result<std::vector<divexp::ItemContribution>> contributions =
      divexp::ShapleyContributions(table, items.value());
  if (!contributions.ok()) return error(contributions.status());
  json.BeginObject()
      .Key("ok")
      .Value(true)
      .Key("items")
      .Value(table.ItemsetName(items.value()))
      .Key("contributions")
      .BeginArray();
  for (const divexp::ItemContribution& c : contributions.value()) {
    json.BeginObject()
        .Key("item")
        .Value(table.catalog().ItemName(c.item))
        .Key("contribution")
        .Value(c.contribution)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

}  // namespace perfbench
