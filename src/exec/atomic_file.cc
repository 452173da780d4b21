#include "exec/atomic_file.hh"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/log.hh"

namespace dcl1::exec
{

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path))
{
}

AtomicFileWriter::~AtomicFileWriter()
{
    // Uncommitted buffers are simply dropped: the destination file is
    // untouched, which is the whole point.
}

void
AtomicFileWriter::commit()
{
    if (committed_)
        panic("AtomicFileWriter: double commit of '%s'", path_.c_str());
    committed_ = true;

    // Per-process temp name: fleet workers rewrite the same manifest
    // concurrently, and a shared ".tmp" would let one process rename
    // another's half-written file (or fail on ENOENT after losing the
    // race). Each writes its own temp; rename(2) arbitrates.
    const std::string tmp =
        csprintf("%s.tmp.%ld", path_.c_str(),
                 static_cast<long>(::getpid()));
    // The one sanctioned raw write (see file comment in the header).
    std::FILE *f = std::fopen(tmp.c_str(), "w"); // lint: rawwrite-ok
    if (!f)
        fatal("cannot open '%s': %s", tmp.c_str(), std::strerror(errno));
    const std::string content = buf_.str();
    if (!content.empty() &&
        std::fwrite(content.data(), 1, content.size(), f) !=
            content.size()) {
        std::fclose(f);
        fatal("short write to '%s'", tmp.c_str());
    }
    if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
        std::fclose(f);
        fatal("cannot flush '%s': %s", tmp.c_str(),
              std::strerror(errno));
    }
    if (std::fclose(f) != 0)
        fatal("cannot close '%s': %s", tmp.c_str(),
              std::strerror(errno));
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        fatal("cannot rename '%s' -> '%s': %s", tmp.c_str(),
              path_.c_str(), std::strerror(errno));
}

AppendLog::AppendLog(std::string path) : path_(std::move(path))
{
}

AppendLog::~AppendLog()
{
    // No lock: destruction requires exclusive ownership by contract
    // (no other thread may still be appending), and the analysis does
    // not run on destructors anyway.
    if (file_)
        std::fclose(file_);
}

bool
AppendLog::appendLine(const std::string &line)
{
    MutexLock lock(mutex_);
    std::string record;
    if (!file_) {
        if (warned_)
            return false;
        // A hard kill can leave a last line without its newline; end
        // it, or this record would land on the torn line and be lost
        // with it.
        std::ifstream tail(path_, std::ios::binary);
        if (tail.seekg(-1, std::ios::end) && tail.get() != '\n')
            record = "\n";
        // Append mode: concurrent/successive runs extend the log, and
        // POSIX append semantics make each write land whole.
        file_ = std::fopen(path_.c_str(), "a"); // lint: rawwrite-ok
        if (!file_) {
            warned_ = true;
            warn("AppendLog: cannot open '%s' (%s); records dropped",
                 path_.c_str(), std::strerror(errno));
            return false;
        }
    }
    record += line;
    record += '\n';
    // Exactly one write per record, flushed immediately: a crash can
    // lose only the record being written, never tear an earlier one.
    if (std::fwrite(record.data(), 1, record.size(), file_) !=
        record.size()) {
        if (!warned_) {
            warned_ = true;
            warn("AppendLog: short write to '%s'", path_.c_str());
        }
        return false;
    }
    std::fflush(file_);
    return true;
}

std::optional<std::string>
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
ensureDirectory(const std::string &path)
{
    if (path.empty())
        fatal("ensureDirectory: empty path");
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial += path[i];
            continue;
        }
        if (!partial.empty() &&
            ::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
            fatal("cannot create directory '%s': %s", partial.c_str(),
                  std::strerror(errno));
        }
        if (i < path.size())
            partial += '/';
    }
}

} // namespace dcl1::exec
