#include "exec/interrupt.hh"

#include <csignal>

namespace dcl1::exec
{

namespace
{

// Async-signal-safe state: the handler only touches this flag.
volatile std::sig_atomic_t interrupt_flag = 0;

extern "C" void
interruptHandler(int signum)
{
    if (interrupt_flag) {
        // Second signal: the sender means it. Restore the default
        // disposition and re-raise so the process dies with the
        // conventional status for that signal.
        std::signal(signum, SIG_DFL);
        std::raise(signum);
        return;
    }
    interrupt_flag = 1;
}

} // anonymous namespace

void
installSignalHandlers()
{
    std::signal(SIGINT, interruptHandler);
    // Fleet orchestrators stop workers with SIGTERM; a cooperative
    // drain publishes the in-flight cells and leaves the run
    // directory resumable.
    std::signal(SIGTERM, interruptHandler);
}

void
requestInterrupt()
{
    interrupt_flag = 1;
}

bool
interruptRequested()
{
    return interrupt_flag != 0;
}

void
clearInterrupt()
{
    interrupt_flag = 0;
}

} // namespace dcl1::exec
