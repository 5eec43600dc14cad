#include "workload/trace_io.hh"

#include <climits>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "sim/log.hh"
#include "sim/parse.hh"

namespace tsoper
{

void
saveWorkload(const Workload &w, std::ostream &os)
{
    os << "# tsoper trace v1\n";
    os << "workload " << (w.name.empty() ? "unnamed" : w.name)
       << " cores=" << w.perCore.size() << " locks=" << w.numLocks
       << " barriers=" << w.numBarriers << "\n";
    for (std::size_t c = 0; c < w.perCore.size(); ++c) {
        os << "core " << c << "\n";
        for (const TraceOp &op : w.perCore[c]) {
            switch (op.type) {
              case OpType::Load:
                os << "L " << std::hex << op.addr << std::dec << "\n";
                break;
              case OpType::Store:
                os << "S " << std::hex << op.addr << std::dec << "\n";
                break;
              case OpType::Compute:
                os << "C " << op.arg << "\n";
                break;
              case OpType::LockAcq:
                os << "A " << op.arg << "\n";
                break;
              case OpType::LockRel:
                os << "R " << op.arg << "\n";
                break;
              case OpType::Barrier:
                os << "B " << op.arg << "\n";
                break;
              case OpType::Marker:
                os << "M\n";
                break;
            }
        }
    }
}

void
saveWorkloadFile(const Workload &w, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        tsoper_fatal("cannot open trace file for writing: ", path);
    saveWorkload(w, os);
    if (!os)
        tsoper_fatal("I/O error writing trace file: ", path);
}

Workload
loadWorkload(std::istream &is)
{
    Workload w;
    bool haveHeader = false;
    Trace *current = nullptr;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        // A directive's one operand, parsed whole (decimal, or hex for
        // addresses): nothing may be missing, trail it, or follow it.
        const auto operand = [&](bool hex, std::uint64_t max) {
            std::string text, extra;
            std::uint64_t value = 0;
            if (!(ls >> text) || (ls >> extra) ||
                !(hex ? parseHex(text, &value)
                      : parseUint(text, &value, max)))
                tsoper_fatal("trace line ", lineNo,
                             ": malformed operand in '", line, "'");
            return value;
        };
        if (tok == "workload") {
            std::string name;
            ls >> name;
            w.name = name;
            std::string kv;
            unsigned cores = 0;
            while (ls >> kv) {
                const auto eq = kv.find('=');
                if (eq == std::string::npos)
                    tsoper_fatal("trace line ", lineNo,
                                 ": malformed key=value: ", kv);
                const std::string key = kv.substr(0, eq);
                std::uint64_t parsed = 0;
                if (!parseUint(kv.substr(eq + 1), &parsed, UINT_MAX))
                    tsoper_fatal("trace line ", lineNo,
                                 ": bad number in ", kv);
                const unsigned value = static_cast<unsigned>(parsed);
                if (key == "cores")
                    cores = value;
                else if (key == "locks")
                    w.numLocks = value;
                else if (key == "barriers")
                    w.numBarriers = value;
                else
                    tsoper_fatal("trace line ", lineNo,
                                 ": unknown key: ", key);
            }
            if (cores == 0 || cores > 64)
                tsoper_fatal("trace line ", lineNo,
                             ": bad core count ", cores);
            w.perCore.resize(cores);
            haveHeader = true;
        } else if (tok == "core") {
            if (!haveHeader)
                tsoper_fatal("trace line ", lineNo,
                             ": 'core' before 'workload' header");
            const std::uint64_t idx = operand(false, UINT64_MAX);
            if (idx >= w.perCore.size())
                tsoper_fatal("trace line ", lineNo,
                             ": core index ", idx, " out of range");
            current = &w.perCore[idx];
        } else {
            if (!current)
                tsoper_fatal("trace line ", lineNo,
                             ": op before any 'core' directive");
            TraceOp op{};
            const auto arg = [&] {
                return static_cast<std::uint32_t>(operand(false, UINT32_MAX));
            };
            if (tok == "L" || tok == "S") {
                op.type = tok == "L" ? OpType::Load : OpType::Store;
                op.addr = operand(true, UINT64_MAX);
            } else if (tok == "C") {
                op.type = OpType::Compute;
                op.arg = arg();
            } else if (tok == "A" || tok == "R") {
                op.type = tok == "A" ? OpType::LockAcq : OpType::LockRel;
                op.arg = arg();
                op.addr = layout::lockAddr(op.arg);
            } else if (tok == "B") {
                op.type = OpType::Barrier;
                op.arg = arg();
                op.addr = layout::barrierAddr(op.arg);
            } else if (tok == "M") {
                op.type = OpType::Marker;
                if (std::string extra; ls >> extra)
                    tsoper_fatal("trace line ", lineNo,
                                 ": malformed operand in '", line, "'");
            } else {
                tsoper_fatal("trace line ", lineNo,
                             ": unknown directive '", tok, "'");
            }
            current->push_back(op);
        }
    }
    if (!haveHeader)
        tsoper_fatal("trace stream has no 'workload' header");
    return w;
}

Workload
loadWorkloadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        tsoper_fatal("cannot open trace file: ", path);
    return loadWorkload(is);
}

} // namespace tsoper
