// The tchimera_serve child: fork/exec on a DBDIR, wait until it accepts
// a connection, stop it with a signal, read its peak RSS and CPU time.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>

#include "bench.h"
#include "server/client.h"

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 60000;

}  // namespace

ServeProcess::~ServeProcess() {
  if (running()) Stop(SIGKILL);
}

Result<double> ServeProcess::Start(const std::string& serve_bin,
                                   const std::string& dbdir,
                                   const std::string& log_path, int workers) {
  if (running()) return Status::FailedPrecondition("server already running");
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const std::string workers_flag = "--workers=" + std::to_string(workers);
  const int64_t begin = NowNs();
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Never outlive the harness, even if it is killed mid-run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDERR_FILENO);
    int devnull = open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      dup2(devnull, STDIN_FILENO);
      dup2(devnull, STDOUT_FILENO);
    }
    execl(serve_bin.c_str(), serve_bin.c_str(), "--port=0",
          workers_flag.c_str(), dbdir.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  err_fd_ = fds[0];

  // Read stderr until the "listening on host:port" line.
  std::string seen;
  std::FILE* log = std::fopen(log_path.c_str(), "a");
  const int64_t deadline = begin + int64_t{kStartTimeoutMs} * 1000000;
  size_t line_end = std::string::npos;
  while (true) {
    size_t at = seen.find("listening on ");
    if (at != std::string::npos) {
      line_end = seen.find('\n', at);
      if (line_end != std::string::npos) break;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    pollfd pfd{err_fd_, POLLIN, 0};
    int ready = left_ms > 0 ? poll(&pfd, 1, static_cast<int>(left_ms)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    char buf[4096];
    ssize_t n = ready > 0 ? read(err_fd_, buf, sizeof buf) : 0;
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (log != nullptr) {
        std::fwrite(seen.data(), 1, seen.size(), log);
        std::fclose(log);
      }
      Stop(SIGKILL);
      return Status::Unavailable("tchimera_serve did not start: " + seen);
    }
    seen.append(buf, static_cast<size_t>(n));
  }
  size_t colon = seen.rfind(':', seen.find(' ', seen.find("listening on ") +
                                                    13));
  port_ = static_cast<uint16_t>(std::atoi(seen.c_str() + colon + 1));
  if (log != nullptr) std::fwrite(seen.data(), 1, seen.size(), log);

  // Accepting connections: the hello frame round-trips.
  Result<std::unique_ptr<tchimera::Client>> probe =
      tchimera::Client::Connect("127.0.0.1", port_);
  const double elapsed = static_cast<double>(NowNs() - begin) * 1e-9;
  if (!probe.ok()) {
    if (log != nullptr) std::fclose(log);
    Stop(SIGKILL);
    return probe.status();
  }
  (*probe)->Close();

  // Keep draining stderr so the child never blocks on a full pipe.
  const int fd = err_fd_;
  drain_ = std::make_unique<std::thread>([fd, log] {
    char buf[4096];
    while (true) {
      ssize_t n = read(fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      if (log != nullptr) std::fwrite(buf, 1, static_cast<size_t>(n), log);
    }
    if (log != nullptr) std::fclose(log);
  });
  return elapsed;
}

int ServeProcess::Stop(int sig) {
  if (!running()) return 0;
  kill(pid_, sig);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (drain_ != nullptr) {
    drain_->join();  // the pipe hits EOF once the child is gone
    drain_.reset();
  }
  if (err_fd_ >= 0) close(err_fd_);
  err_fd_ = -1;
  return status;
}

double ServeProcess::PeakRssMib() const {
  if (!running()) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double ServeProcess::CpuSeconds() const {
  clockid_t clock;
  timespec ts{};
  if (!running() || clock_getcpuclockid(pid_, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return -1;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench
