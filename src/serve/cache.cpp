#include "serve/cache.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "circuits/basic.h"
#include "circuits/random_circuit.h"
#include "circuits/sequential.h"
#include "circuits/sn74181.h"
#include "fx/fx.h"
#include "netlist/bench_io.h"
#include "obs/obs.h"
#include "serve/protocol.h"

namespace dft::serve {

Netlist builtin_circuit(const std::string& name) {
  if (name == "c17") return make_c17();
  if (name == "adder4") return make_ripple_adder(4);
  if (name == "adder8") return make_ripple_adder(8);
  if (name == "mult3") return make_array_multiplier(3);
  if (name == "dec3") return make_decoder(3);
  if (name == "parity8") return make_parity_tree(8);
  if (name == "mux3") return make_mux_tree(3);
  if (name == "cmp4") return make_comparator(4);
  if (name == "sn74181") return make_sn74181();
  if (name == "counter8") return make_counter(8);
  if (name == "accum4") return make_accumulator(4);
  if (name == "rand2k" || name == "rand20k") {
    RandomCircuitSpec spec;
    if (name == "rand2k") {
      spec.num_inputs = 40;
      spec.num_outputs = 24;
      spec.num_gates = 2000;
      spec.seed = 99;
    } else {
      spec.num_inputs = 64;
      spec.num_outputs = 48;
      spec.num_gates = 20000;
      spec.seed = 1234;
    }
    spec.max_fanin = 4;
    return make_random_combinational(spec);
  }
  throw std::invalid_argument("unknown built-in circuit: " + name);
}

std::shared_ptr<const CompiledCircuit> compile_circuit(
    const ServeRequest& req) {
  return std::make_shared<const CompiledCircuit>(jobs::compile(
      req.circuit.empty() ? read_bench_string(req.bench, "request:" + req.id)
                          : builtin_circuit(req.circuit)));
}

namespace {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string circuit_cache_key(const ServeRequest& req) {
  if (!req.circuit.empty()) return "builtin:" + req.circuit;
  char buf[24];
  std::snprintf(buf, sizeof buf, "bench:%016llx",
                static_cast<unsigned long long>(fnv1a64(req.bench)));
  return buf;
}

NetlistCache::NetlistCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const CompiledCircuit> NetlistCache::get(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (obs::enabled()) {
      static obs::Counter& misses =
          obs::Registry::global().counter("serve.cache.misses");
      misses.add(1);
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh to MRU
  ++stats_.hits;
  if (obs::enabled()) {
    static obs::Counter& hits =
        obs::Registry::global().counter("serve.cache.hits");
    hits.add(1);
  }
  return it->second->second;
}

bool NetlistCache::put(const std::string& key,
                       std::shared_ptr<const CompiledCircuit> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // Injected allocation failure: checked BEFORE any mutation, so a failed
  // put leaves the cache exactly as it was (strong guarantee, trivially).
  if (capacity_ == 0 || DFT_FX_FIRE("serve.cache.insert")) {
    ++stats_.insert_failures;
    if (obs::enabled()) {
      static obs::Counter& failures =
          obs::Registry::global().counter("serve.cache.insert_failures");
      failures.add(1);
    }
    return false;
  }
  if (auto it = index_.find(key); it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    if (obs::enabled()) {
      static obs::Counter& evictions =
          obs::Registry::global().counter("serve.cache.evictions");
      evictions.add(1);
    }
  }
  return true;
}

NetlistCache::Stats NetlistCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t NetlistCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace dft::serve
