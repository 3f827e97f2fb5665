#include "served.hpp"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "trace.hpp"

extern char** environ;

namespace fa::perfbench {

namespace {
double seconds_now() { return static_cast<double>(now_ns()) * 1e-9; }
}  // namespace

ServedProcess::ServedProcess(const std::string& binary,
                             const std::vector<std::string>& args, int threads,
                             const std::string& log_path, double timeout_s) {
  // Everything the child needs is prepared before fork(): between fork
  // and exec only async-signal-safe calls are allowed.
  std::vector<std::string> argv_s{binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FA_THREADS=", 11) != 0) env_s.emplace_back(*e);
  }
  env_s.push_back("FA_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (std::string& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("cannot open " + log_path);
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(out[0]);
    throw std::runtime_error("fork failed");
  }
  pid_ = pid;
  out_fd_ = out[0];

  // Read stdout until the port announcement.
  std::string buf;
  const double deadline = seconds_now() + timeout_s;
  while (port_ == 0) {
    const double left = deadline - seconds_now();
    if (left <= 0.0) break;
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    char chunk[256];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = buf.find("fa_served: port ");
    if (at != std::string::npos && buf.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::atoi(buf.c_str() + at + 16));
    }
  }
  if (port_ == 0) {
    stop(0.0);
    throw std::runtime_error("fa_served did not announce a port; see " +
                             log_path);
  }
}

ServedProcess::~ServedProcess() { stop(); }

int ServedProcess::stop(double grace_s) {
  if (pid_ <= 0) return 0;
  int status = 0;
  ::kill(pid_, grace_s > 0.0 ? SIGTERM : SIGKILL);
  const double deadline = seconds_now() + grace_s;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (seconds_now() > deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return status;
}

}  // namespace fa::perfbench
