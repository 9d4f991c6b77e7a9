#include "exec/outcome.hpp"

#include <csignal>
#include <sstream>

namespace pcieb::exec {

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: break;
  }
  return "SIG" + std::to_string(sig);
}

std::string Outcome::classify() const {
  std::ostringstream os;
  switch (kind) {
    case OutcomeKind::Ok: return "ok";
    case OutcomeKind::NonzeroExit: os << "exit(" << exit_code << ")"; break;
    case OutcomeKind::Signal: os << "signal(" << signal_name(term_signal) << ")"; break;
    case OutcomeKind::Timeout: return "timeout";
    case OutcomeKind::Oom: return "oom";
  }
  return os.str();
}

}  // namespace pcieb::exec
