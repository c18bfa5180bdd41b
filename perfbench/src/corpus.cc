#include "corpus.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "wasm/encoder.h"
#include "wasm/opcodes.h"
#include "wat/wat.h"

namespace wizbench {

using namespace wizpp;

namespace {

/** Non-comment, non-blank lines of a table file, split on spaces. */
bool
readTable(const std::string& path,
          std::vector<std::vector<std::string>>* rows)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "wizbench: cannot read " << path << "\n";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::vector<std::string> cols;
        std::string c;
        while (ls >> c) cols.push_back(c);
        if (!cols.empty()) rows->push_back(std::move(cols));
    }
    return true;
}

} // namespace

std::vector<const BenchProgram*>
corpusSources()
{
    std::vector<const BenchProgram*> out;
    for (const BenchProgram& p : allPrograms()) out.push_back(&p);
    out.push_back(&richardsProgram());
    return out;
}

std::vector<Program>
encodeCorpus()
{
    std::vector<Program> corpus;
    for (const BenchProgram* src : corpusSources()) {
        auto parsed = parseWat(src->wat);
        if (!parsed.ok()) {
            std::cerr << "wizbench: " << src->name << ": "
                      << parsed.error().toString() << "\n";
            return {};
        }
        Program p;
        p.name = src->name;
        p.src = src;
        p.bytes = encodeModule(parsed.value());
        corpus.push_back(std::move(p));
    }
    return corpus;
}

std::vector<Program>
loadCorpus(const std::string& dataDir, bool withExpected)
{
    std::vector<Program> corpus = encodeCorpus();
    if (corpus.empty()) return {};
    std::vector<std::vector<std::string>> np, ex;
    if (!readTable(dataDir + "/np_table.txt", &np) ||
        (withExpected && !readTable(dataDir + "/expected.txt", &ex))) {
        return {};
    }
    auto lookup = [&](const std::string& name) -> Program* {
        for (Program& p : corpus) {
            if (p.name == name) return &p;
        }
        return nullptr;
    };
    try {
        for (const auto& row : np) {
            Program* p = row.size() == 3 ? lookup(row[0]) : nullptr;
            if (!p) throw std::runtime_error("np_table.txt: bad row " + row[0]);
            p->n = (uint32_t)std::stoul(row[1]);
            p->nJit = (uint32_t)std::stoul(row[2]);
        }
        for (const auto& row : ex) {
            Program* p = row.size() == 6 ? lookup(row[0]) : nullptr;
            if (!p) throw std::runtime_error("expected.txt: bad row " + row[0]);
            Expected e;
            e.checksumBits = std::stoull(row[2], nullptr, 16);
            e.instrs = std::stoull(row[3]);
            e.branchFires = std::stoull(row[4]);
            e.calls = std::stoull(row[5]);
            p->expected[(uint32_t)std::stoul(row[1])] = e;
        }
    } catch (const std::exception& e) {
        std::cerr << "wizbench: " << e.what() << "\n";
        return {};
    }
    for (const Program& p : corpus) {
        if (p.n == 0 || p.nJit == 0 ||
            (withExpected &&
             (!p.expected.count(p.n) || !p.expected.count(p.nJit)))) {
            std::cerr << "wizbench: no sizes or expected outputs for "
                      << p.name << "\n";
            return {};
        }
    }
    return corpus;
}

const Program*
findProgram(const std::vector<Program>& corpus, const std::string& name)
{
    for (const Program& p : corpus) {
        if (p.name == name) return &p;
    }
    return nullptr;
}

uint64_t
resultBits(const Result<std::vector<Value>>& r)
{
    if (!r.ok() || r.value().size() != 1) return ~0ull;
    return r.value()[0].bits;
}

std::vector<std::pair<uint32_t, uint32_t>>
allSites(Engine& eng)
{
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (uint32_t f = 0; f < eng.numFuncs(); f++) {
        FuncState& fs = eng.funcState(f);
        if (fs.decl->imported) continue;
        for (uint32_t pc : fs.sideTable.instrBoundaries) out.push_back({f, pc});
    }
    return out;
}

bool
isBranchOpcode(uint8_t op)
{
    return op == OP_IF || op == OP_BR_IF || op == OP_BR_TABLE;
}

} // namespace wizbench
