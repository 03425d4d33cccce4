// Seeded inputs: the relation shape, the write stream and the abstract
// read-request stream. Everything here is a pure function of the seed and
// is generated before any timed region; the program under test receives
// only these inputs.

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rollback/commands.h"
#include "workload/generator.h"

namespace e2ebench {

// The fixed relation shape.
inline constexpr size_t kRelations = 64;
inline constexpr size_t kTemporalEvery = 4;  // a quarter are temporal
inline constexpr size_t kAttributes = 4;
inline constexpr size_t kTuples = 128;
inline constexpr double kChangeFraction = 1.0 / 16;
inline constexpr size_t kHotRelations = 13;  // ~20% of relations ...
inline constexpr double kHotShare = 0.8;     // ... take 80% of accesses
inline constexpr size_t kAtomicEvery = 8;  // one sentence in 8 is atomic
/// Attribute values are drawn from [0, kValueRange).
inline constexpr int64_t kValueRange = 256;

struct RelationSpec {
  std::string name;
  bool temporal = false;
};

/// One sentence: one modify_state, or an atomic pair on two relations.
struct Write {
  std::vector<ttra::Command> sentence;
  std::vector<uint32_t> relations;  // relation index per command
  bool atomic = false;
};

/// Read-request classes. Probes call Session::Rollback directly; the
/// rest are query text run through the language and optimizer.
enum class ReadClass : uint8_t {
  kProbe,
  kPoint,      // rho(I, N)
  kSelect,     // select over rho
  kJoin,       // equi-join of two rho's
  kDiff,       // rho(I, N1) minus rho(I, N2): what changed
  kAggregate,  // summarize over rho
  kTemporal,   // delta over hrho on a temporal relation
  kCount
};

/// A read request before it meets a history: positions are fractions the
/// reader resolves against the versions its session can see.
struct ReadRequest {
  ReadClass cls = ReadClass::kProbe;
  uint32_t relation = 0;
  uint32_t relation2 = 0;  // join partner
  bool recent = false;     // N among the last 8 versions, else uniform
  double u = 0;            // position of N among the candidate versions
  int64_t param = 0;       // select constant / valid-time window start
};

class Inputs {
 public:
  ttra::Schema schema;
  std::vector<RelationSpec> relations;
  /// One sentence per relation: define_relation + its initial state.
  std::vector<std::vector<ttra::Command>> load;
  /// Each relation's state chain continues from the load.
  std::vector<Write> writes;

  /// FNV-1a over the encoded commands (the seed-determinism witness).
  uint64_t Digest() const;
};

/// Relations, load and `writes` sentences for `seed`.
Inputs MakeInputs(uint64_t seed, size_t writes);

/// `n` read requests: half probes, the rest spread evenly over the query
/// classes; `recent_share` of them target recent versions. Reads follow
/// the writes' 80/20 relation skew.
std::vector<ReadRequest> MakeReadRequests(uint64_t seed, size_t n,
                                          double recent_share,
                                          const std::vector<RelationSpec>& rels);

uint64_t DigestReads(const std::vector<ReadRequest>& reads);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
