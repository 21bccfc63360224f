// Child-process plumbing, clocks and small statistics for the driver.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>

#include "perfbench.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Child Spawn(const std::vector<std::string>& argv) {
  Child child;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return child;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return child;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  child.pid = pid;
  child.out_fd = fds[0];
  return child;
}

namespace {

/// Reads what is available (waiting up to `timeout`); false on EOF/error.
bool ReadSome(Child& child, double timeout) {
  pollfd p{child.out_fd, POLLIN, 0};
  const int ms = static_cast<int>(std::max(0.0, timeout) * 1000.0) + 1;
  if (poll(&p, 1, ms) <= 0) return true;  // nothing yet
  char buf[4096];
  const ssize_t n = read(child.out_fd, buf, sizeof(buf));
  if (n <= 0) return false;
  child.pending.append(buf, static_cast<std::size_t>(n));
  return true;
}

}  // namespace

bool WaitForLine(Child& child, const std::string& prefix, double timeout, std::string* line) {
  const double deadline = Now() + timeout;
  while (true) {
    std::size_t nl;
    while ((nl = child.pending.find('\n')) != std::string::npos) {
      std::string l = child.pending.substr(0, nl);
      child.pending.erase(0, nl + 1);
      if (l.compare(0, prefix.size(), prefix) == 0) {
        *line = l;
        return true;
      }
    }
    const double left = deadline - Now();
    if (left <= 0 || !ReadSome(child, left)) return false;
  }
}

int StopChild(Child& child, int signal, double timeout, std::string* rest) {
  if (child.pid < 0) return -1;
  if (signal != 0) kill(child.pid, signal);
  const double deadline = Now() + timeout;
  bool killed = false;
  while (child.out_fd >= 0) {
    const double left = deadline - Now();
    if (left <= 0 && !killed) {
      kill(child.pid, SIGKILL);
      killed = true;
    }
    if (!ReadSome(child, std::max(0.05, left))) {
      close(child.out_fd);
      child.out_fd = -1;
    }
  }
  int status = 0;
  waitpid(child.pid, &status, 0);
  child.pid = -1;
  if (rest != nullptr) *rest = std::move(child.pending);
  return killed ? -1 : status;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "perfbench";
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace perfbench
