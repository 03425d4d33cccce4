#include "inputs.h"

#include <cmath>
#include <cstdio>

namespace e2ebench {
namespace {

ttra::workload::GeneratorOptions GenOptions() {
  ttra::workload::GeneratorOptions o;
  o.value_range = kValueRange;
  return o;
}

/// Replaces about kChangeFraction of the tuples; the size stays ~kTuples.
ttra::SnapshotState Mutate(ttra::workload::Generator& gen,
                           const ttra::SnapshotState& state) {
  std::vector<ttra::Tuple> rows = state.tuples();
  for (ttra::Tuple& row : rows) {
    if (gen.rng().Bernoulli(kChangeFraction)) row = gen.RandomTuple(state.schema());
  }
  return *ttra::SnapshotState::Make(state.schema(), std::move(rows));
}

ttra::HistoricalState Mutate(ttra::workload::Generator& gen,
                             const ttra::HistoricalState& state) {
  std::vector<ttra::HistoricalTuple> rows = state.tuples();
  for (ttra::HistoricalTuple& row : rows) {
    if (gen.rng().Bernoulli(kChangeFraction)) {
      row = ttra::HistoricalTuple{gen.RandomTuple(state.schema()),
                                  gen.RandomElement()};
    }
  }
  return *ttra::HistoricalState::Make(state.schema(), std::move(rows));
}

/// The i-th access's relation: every fifth access goes to a cold relation,
/// the rest to a hot one, each picked uniformly. The hot set is the same
/// for every seed (relations 0..kHotRelations-1, a quarter of them
/// temporal) so that seeds vary the data, not the shape of the load.
uint32_t PickRelation(ttra::Rng& rng, size_t i) {
  const bool hot = i % 5 != 4;
  static_assert(kHotShare == 0.8, "the access pattern encodes 4 hot of 5");
  if (hot) return static_cast<uint32_t>(rng.Uniform(kHotRelations));
  return static_cast<uint32_t>(kHotRelations +
                               rng.Uniform(kRelations - kHotRelations));
}

/// FNV-1a.
uint64_t Fnv(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Inputs MakeInputs(uint64_t seed, size_t writes) {
  Inputs in;
  ttra::workload::Generator gen(seed, GenOptions());
  std::vector<ttra::Attribute> attributes;
  for (size_t i = 0; i < kAttributes; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    attributes.push_back({std::move(name), ttra::ValueType::kInt});
  }
  in.schema = *ttra::Schema::Make(std::move(attributes));

  // Current state of every relation's chain.
  std::vector<ttra::SnapshotState> snap(kRelations);
  std::vector<ttra::HistoricalState> hist(kRelations);
  for (size_t i = 0; i < kRelations; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "r%02zu", i);
    RelationSpec spec{name, i % kTemporalEvery == kTemporalEvery - 1};
    std::vector<ttra::Command> sentence;
    if (spec.temporal) {
      sentence.push_back(ttra::DefineRelationCmd{
          spec.name, ttra::RelationType::kTemporal, in.schema});
      hist[i] = gen.RandomHistoricalState(in.schema, kTuples);
      sentence.push_back(ttra::ModifyHistoricalCmd{spec.name, hist[i]});
    } else {
      sentence.push_back(ttra::DefineRelationCmd{
          spec.name, ttra::RelationType::kRollback, in.schema});
      snap[i] = gen.RandomState(in.schema, kTuples);
      sentence.push_back(ttra::ModifySnapshotCmd{spec.name, snap[i]});
    }
    in.relations.push_back(std::move(spec));
    in.load.push_back(std::move(sentence));
  }

  in.writes.reserve(writes);
  size_t access = 0;
  for (size_t w = 0; w < writes; ++w) {
    Write write;
    write.atomic = w % kAtomicEvery == kAtomicEvery - 1;
    write.relations.push_back(PickRelation(gen.rng(), access++));
    if (write.atomic) {
      uint32_t other = PickRelation(gen.rng(), access++);
      while (other == write.relations[0]) other = PickRelation(gen.rng(), access);
      write.relations.push_back(other);
    }
    for (uint32_t r : write.relations) {
      const std::string& name = in.relations[r].name;
      if (in.relations[r].temporal) {
        hist[r] = Mutate(gen, hist[r]);
        write.sentence.push_back(ttra::ModifyHistoricalCmd{name, hist[r]});
      } else {
        snap[r] = Mutate(gen, snap[r]);
        write.sentence.push_back(ttra::ModifySnapshotCmd{name, snap[r]});
      }
    }
    in.writes.push_back(std::move(write));
  }
  return in;
}

uint64_t Inputs::Digest() const {
  std::string buffer;
  for (const auto& sentence : load) {
    for (const ttra::Command& c : sentence) ttra::EncodeCommand(c, buffer);
  }
  for (const Write& w : writes) {
    buffer.push_back(w.atomic ? 'A' : 'S');
    for (const ttra::Command& c : w.sentence) ttra::EncodeCommand(c, buffer);
  }
  return Fnv(buffer);
}

std::vector<ReadRequest> MakeReadRequests(uint64_t seed, size_t n,
                                          double recent_share,
                                          const std::vector<RelationSpec>& rels) {
  // Classes, targets and the recent/far split follow fixed patterns in
  // exact proportions; the seed picks relations, positions and constants.
  ttra::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  size_t access = 0;
  auto pick = [&](bool temporal) {
    const size_t i = access++;
    for (;;) {
      const uint32_t r = PickRelation(rng, i);
      if (rels[r].temporal == temporal) return r;
    }
  };
  constexpr size_t kQueryClasses = static_cast<size_t>(ReadClass::kCount) - 1;
  std::vector<ReadRequest> out(n);
  for (size_t i = 0; i < n; ++i) {
    ReadRequest& req = out[i];
    const size_t k = i / 2;
    req.cls = i % 2 == 0 ? ReadClass::kProbe
                         : static_cast<ReadClass>(1 + k % kQueryClasses);
    const bool temporal = req.cls == ReadClass::kTemporal ||
                          (req.cls == ReadClass::kProbe && k % 4 == 3);
    req.relation = pick(temporal);
    req.relation2 = pick(false);
    while (req.relation2 == req.relation) req.relation2 = pick(false);
    // Blocks of one request per class are recent or far as a whole, in
    // the exact proportion `recent_share` (a Bresenham pattern).
    const double block = static_cast<double>(k / kQueryClasses);
    req.recent = std::floor((block + 1) * recent_share) > std::floor(block * recent_share);
    req.u = rng.UniformDouble();
    req.param = rng.UniformInt(0, kValueRange - 1);
  }
  return out;
}

uint64_t DigestReads(const std::vector<ReadRequest>& reads) {
  std::string bytes;
  auto put = [&bytes](const auto& field) {
    bytes.append(reinterpret_cast<const char*>(&field), sizeof(field));
  };
  for (const ReadRequest& r : reads) {
    put(r.cls);
    put(r.relation);
    put(r.relation2);
    put(r.recent);
    put(r.u);
    put(r.param);
  }
  return Fnv(bytes);
}

}  // namespace e2ebench
