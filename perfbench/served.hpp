// One fa_served child process. The child dies with the runner
// (PR_SET_PDEATHSIG), and the destructor stops and reaps it, so no run
// — passed, failed or interrupted — leaves a server behind.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fa::perfbench {

class ServedProcess {
 public:
  // Starts `binary` with `args` and FA_THREADS=`threads`, stderr to
  // `log_path`, and waits for the "fa_served: port N" line (up to
  // `timeout_s`). Throws std::runtime_error when it does not come.
  ServedProcess(const std::string& binary, const std::vector<std::string>& args,
                int threads, const std::string& log_path, double timeout_s);
  ~ServedProcess();
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  // SIGTERM (graceful drain), then SIGKILL after `grace_s`; reaps the
  // child. Returns its exit status as waitpid() reports it.
  int stop(double grace_s = 10.0);

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace fa::perfbench
