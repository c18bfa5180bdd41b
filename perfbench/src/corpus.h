/**
 * @file
 * The benchmark's view of the corpus: every program encoded to a
 * .wasm binary, its per-program size `n_p` (np_table.txt) and its
 * expected outputs (expected.txt). Both files live in the benchmark
 * directory and are regenerated by `wizbench calibrate` and
 * `wizbench expect`.
 */

#ifndef WIZBENCH_CORPUS_H
#define WIZBENCH_CORPUS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "suites/suites.h"

namespace wizbench {

/** What one program computes at one size, exactly. */
struct Expected
{
    uint64_t checksumBits = 0;  ///< bits of the f64 `run` result
    uint64_t instrs = 0;        ///< instructions executed
    uint64_t branchFires = 0;   ///< executions of if / br_if / br_table
    uint64_t calls = 0;         ///< function activations
};

struct Program
{
    std::string name;
    const wizpp::BenchProgram* src = nullptr;
    std::vector<uint8_t> bytes;  ///< the encoded module
    uint32_t n = 0;              ///< n_p: interpreter size (np_table.txt)
    uint32_t nJit = 0;           ///< compiled-tier size (np_table.txt)
    /** Expected outputs by size (n, nJit, and the serve-fleet sizes). */
    std::map<uint32_t, Expected> expected;
};

/** The 68 suite programs plus richards, in corpus order. */
std::vector<const wizpp::BenchProgram*> corpusSources();

/** Every corpus program encoded to .wasm, without the tables. */
std::vector<Program> encodeCorpus();

/**
 * Loads the corpus: encodes every program and reads np_table.txt and,
 * with @p withExpected, expected.txt from @p dataDir. Returns an empty
 * vector (after a message on stderr) when a table is missing,
 * malformed or misses a program.
 */
std::vector<Program> loadCorpus(const std::string& dataDir,
                                bool withExpected = true);

/** The program called @p name; null if absent. */
const Program* findProgram(const std::vector<Program>& corpus,
                           const std::string& name);

/** Bits of an f64 `run` result, or ~0 when the call failed. */
uint64_t resultBits(const wizpp::Result<std::vector<wizpp::Value>>& r);

/**
 * Every instruction boundary of every non-imported function of @p eng,
 * as (function, pc), function by function in pc order.
 */
std::vector<std::pair<uint32_t, uint32_t>> allSites(wizpp::Engine& eng);

/** True for the opcodes the `branches` tool instruments. */
bool isBranchOpcode(uint8_t op);

/** Counts its fires; the `branches` tool's probe. */
class BranchCounter : public wizpp::OperandProbe
{
  public:
    void fireOperand(wizpp::Value) override { count++; }
    uint64_t count = 0;
};

} // namespace wizbench

#endif // WIZBENCH_CORPUS_H
