// Content-keyed cache of compiled netlists for dft::serve.
//
// Parsing a .bench source and collapsing its fault universe is pure
// function-of-the-bytes work, and a serving workload hits the same handful
// of circuits over and over -- so the daemon keys compiled artifacts by
// content ("builtin:<name>" for built-ins, "bench:<fnv1a64>" for inline
// sources) and keeps them in a small LRU. Entries are shared_ptr<const ...>:
// a job holds its circuit alive even if the entry is evicted mid-run, and
// immutability is what makes sharing across worker threads sound.
//
// Robustness contract: the cache is an OPTIMIZATION, never a correctness
// dependency. put() can fail (allocation pressure, injected via the
// fx site "serve.cache.insert") -- callers compile uncached and carry on;
// the failure is counted, not raised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "jobs/jobs.h"
#include "netlist/netlist.h"

namespace dft::serve {

struct ServeRequest;

// The older name of jobs::CompiledCircuit, still used by the benchmark's
// serve workload (perfbench/serve_workload.cpp).
using CompiledCircuit = jobs::CompiledCircuit;

// The built-in circuit table (same names the dft_tool CLI accepts: c17,
// adder4, ..., rand20k). Throws std::invalid_argument on unknown names.
Netlist builtin_circuit(const std::string& name);

// Compiles the request's circuit (built-in name or inline bench source).
// Throws std::invalid_argument on unknown built-ins / unparsable sources.
std::shared_ptr<const CompiledCircuit> compile_circuit(const ServeRequest& req);

// "builtin:<name>" or "bench:<fnv1a64-hex>" -- stable across requests that
// carry byte-identical circuit sources.
std::string circuit_cache_key(const ServeRequest& req);

class NetlistCache {
 public:
  // capacity 0 disables caching entirely (every get() misses, put() drops).
  explicit NetlistCache(std::size_t capacity);

  NetlistCache(const NetlistCache&) = delete;
  NetlistCache& operator=(const NetlistCache&) = delete;

  // nullptr on miss; a hit refreshes the entry's LRU position.
  std::shared_ptr<const CompiledCircuit> get(const std::string& key);

  // Inserts (or refreshes) the entry, evicting least-recently-used entries
  // beyond capacity. Returns false -- leaving the cache untouched -- when
  // the insert fails; the fx site "serve.cache.insert" injects that failure
  // path (simulated allocation pressure). Never throws.
  bool put(const std::string& key,
           std::shared_ptr<const CompiledCircuit> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insert_failures = 0;
  };
  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  // MRU at the front; map values point into the list.
  std::list<std::pair<std::string, std::shared_ptr<const CompiledCircuit>>>
      lru_;
  std::map<std::string, decltype(lru_)::iterator> index_;
  Stats stats_;
};

}  // namespace dft::serve
