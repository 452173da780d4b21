#include "workload/trace_file.hh"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace dcl1::workload
{

namespace
{

/** Parses hex digits after an optional 0x; false on anything else. */
bool
parseHexAddr(const std::string &s, Addr &out)
{
    const char *first = s.data();
    const char *last = s.data() + s.size();
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
        first += 2;
    const auto [end, ec] = std::from_chars(first, last, out, 16);
    return ec == std::errc() && end == last;
}

} // anonymous namespace

TraceFileSource::TraceFileSource(const std::string &path,
                                 std::uint32_t num_cores, bool loop)
    : numCores_(num_cores), loop_(loop)
{
    std::ifstream in(path);
    if (!in)
        fatal("trace file '%s' cannot be opened", path.c_str());
    parse(in, path);
}

TraceFileSource::TraceFileSource(std::istream &in,
                                 std::uint32_t num_cores, bool loop)
    : numCores_(num_cores), loop_(loop)
{
    parse(in, "<stream>");
}

std::vector<WarpInstr> &
TraceFileSource::streamOf(CoreId core, WarpId warp)
{
    const std::size_t idx = std::size_t(core) * warpsPerCore_ + warp;
    return streams_[idx];
}

void
TraceFileSource::parse(std::istream &in, const std::string &name)
{
    struct Record
    {
        CoreId core;
        WarpId warp;
        char op;
        Addr addr;
        std::uint32_t bytes;
        std::uint64_t count;
        bool coalesce;
    };
    std::vector<Record> records;

    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        Record r{};
        std::string op;
        if (!(ls >> r.core >> r.warp >> op))
            continue; // blank/comment line
        if (op.size() != 1 ||
            std::string("XRWAB").find(op[0]) == std::string::npos) {
            fatal("%s:%llu: bad op '%s' (expect X/R/W/A/B)",
                  name.c_str(), (unsigned long long)lineno, op.c_str());
        }
        r.op = op[0];
        if (r.op == 'X') {
            if (!(ls >> r.count) || r.count == 0)
                fatal("%s:%llu: X needs a positive count", name.c_str(),
                      (unsigned long long)lineno);
        } else {
            std::string addr_s;
            if (!(ls >> addr_s >> r.bytes) || r.bytes == 0)
                fatal("%s:%llu: memory op needs <hex-addr> <bytes>",
                      name.c_str(), (unsigned long long)lineno);
            if (!parseHexAddr(addr_s, r.addr))
                fatal("%s:%llu: bad address '%s' (expect hex digits "
                      "after an optional 0x)",
                      name.c_str(), (unsigned long long)lineno,
                      addr_s.c_str());
        }
        std::string tail;
        if (ls >> tail && r.op != 'X' && tail == "+") {
            r.coalesce = true;
            tail.clear();
            ls >> tail;
        }
        if (!tail.empty())
            fatal("%s:%llu: unexpected '%s' at end of record",
                  name.c_str(), (unsigned long long)lineno, tail.c_str());
        if (r.core >= numCores_)
            fatal("%s:%llu: core %u out of range (machine has %u)",
                  name.c_str(), (unsigned long long)lineno, r.core,
                  numCores_);
        if (r.warp >= kMaxWarpsPerCore)
            fatal("%s:%llu: warp %u out of range (max %u)", name.c_str(),
                  (unsigned long long)lineno, r.warp, kMaxWarpsPerCore - 1);
        records.push_back(r);
        warpsPerCore_ = std::max(warpsPerCore_, r.warp + 1);
    }
    if (records.empty())
        fatal("trace '%s' contains no records", name.c_str());

    streams_.resize(std::size_t(numCores_) * warpsPerCore_);
    cursor_.assign(streams_.size(), 0);

    // Assemble instructions, folding '+'-coalesced memory records.
    WarpInstr *open_mem = nullptr;
    CoreId open_core = invalidId;
    WarpId open_warp = invalidId;
    for (const Record &r : records) {
        auto &stream = streamOf(r.core, r.warp);
        if (r.op == 'X') {
            open_mem = nullptr;
            for (std::uint64_t i = 0; i < r.count; ++i) {
                WarpInstr instr;
                instr.isMem = false;
                stream.push_back(instr);
                ++instructions_;
            }
            continue;
        }

        MemAccessDesc acc;
        acc.addr = r.addr;
        acc.bytes = r.bytes;
        switch (r.op) {
          case 'R':
            acc.op = mem::MemOp::Read;
            break;
          case 'W':
            acc.op = mem::MemOp::Write;
            break;
          case 'A':
            acc.op = mem::MemOp::Atomic;
            break;
          default:
            acc.op = mem::MemOp::Bypass;
            break;
        }

        const bool continue_open = open_mem && open_core == r.core &&
                                   open_warp == r.warp;
        if (continue_open &&
            open_mem->numAccesses < open_mem->accesses.size()) {
            open_mem->accesses[open_mem->numAccesses++] = acc;
        } else {
            WarpInstr instr;
            instr.isMem = true;
            instr.numAccesses = 1;
            instr.accesses[0] = acc;
            stream.push_back(instr);
            ++instructions_;
            open_mem = &stream.back();
            open_core = r.core;
            open_warp = r.warp;
        }
        if (!r.coalesce)
            open_mem = nullptr;
    }
}

void
TraceFileSource::nextInstr(CoreId core, WarpId warp, Cycle now,
                           WarpInstr &out)
{
    (void)now;
    const std::size_t idx = std::size_t(core) * warpsPerCore_ + warp;
    const auto &stream = streams_[idx];
    if (stream.empty() || (!loop_ && cursor_[idx] >= stream.size())) {
        // Exhausted (or never-traced) warp: spin on arithmetic.
        out.isMem = false;
        out.numAccesses = 0;
        return;
    }
    out = stream[cursor_[idx] % stream.size()];
    ++cursor_[idx];
}

std::uint32_t
TraceFileSource::warpsPerCore(CoreId core) const
{
    (void)core;
    return warpsPerCore_;
}

} // namespace dcl1::workload
