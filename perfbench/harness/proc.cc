#include "proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ChildExit DecodeExit(int status, const struct rusage& usage) {
  ChildExit exit;
  if (WIFEXITED(status)) {
    exit.exit_code = WEXITSTATUS(status);
    exit.ok = exit.exit_code == 0;
  } else if (WIFSIGNALED(status)) {
    exit.term_signal = WTERMSIG(status);
  }
  // Linux reports ru_maxrss in KiB.
  exit.maxrss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
  return exit;
}

}  // namespace

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Wait();
  }
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
}

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& stdout_path,
                  const std::string& stderr_path, bool stdin_pipe,
                  std::string* error) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  int pipe_fds[2] = {-1, -1};
  if (stdin_pipe && ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdin_pipe) {
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[0], 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (stdin_pipe) ::close(pipe_fds[0]);
  if (rc != 0) {
    if (stdin_pipe) ::close(pipe_fds[1]);
    *error = "spawn " + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  stdin_fd_ = stdin_pipe ? pipe_fds[1] : -1;
  return true;
}

ChildExit Child::Wait(double timeout_s) {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  ChildExit exit;
  if (pid_ <= 0) return exit;
  int status = 0;
  struct rusage usage {};
  if (timeout_s > 0.0) {
    const auto t0 = Clock::now();
    bool termed = false;
    for (;;) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
      if (r == pid_) {
        pid_ = -1;
        return DecodeExit(status, usage);
      }
      if (r < 0 && errno != EINTR) break;
      const double waited = SecondsSince(t0);
      if (!termed && waited > timeout_s) {
        ::kill(pid_, SIGTERM);
        termed = true;
      } else if (waited > timeout_s + 5.0) {
        ::kill(pid_, SIGKILL);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      pid_ = -1;
      return exit;
    }
  }
  pid_ = -1;
  return DecodeExit(status, usage);
}

ChildExit RunChild(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path, double* wall_s,
                   std::string* error) {
  const auto t0 = Clock::now();
  Child child;
  if (!child.Start(argv, stdout_path, stderr_path, false, error)) {
    return ChildExit{};
  }
  ChildExit exit = child.Wait();
  *wall_s = SecondsSince(t0);
  return exit;
}

namespace {

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteString(int fd, const std::string& s) {
  const uint32_t size = static_cast<uint32_t>(s.size());
  return WriteAll(fd, &size, sizeof(size)) && WriteAll(fd, s.data(), size);
}

bool ReadString(int fd, std::string* s) {
  uint32_t size = 0;
  if (!ReadAll(fd, &size, sizeof(size))) return false;
  s->resize(size);
  return ReadAll(fd, &(*s)[0], size);
}

/// Fixed-size part of a helper reply.
struct Reply {
  ChildExit exit;
  double wall_s = 0.0;
};

/// The helper's loop: a request is a string count, argv, then the
/// stdout and stderr paths; the reply is a Reply and the error text.
[[noreturn]] void ServeLaunches(int request_fd, int reply_fd) {
  for (;;) {
    uint32_t count = 0;
    if (!ReadAll(request_fd, &count, sizeof(count)) || count < 3) break;
    std::vector<std::string> strings(count);
    bool ok = true;
    for (std::string& s : strings) ok = ok && ReadString(request_fd, &s);
    if (!ok) break;
    const std::string stderr_path = strings.back();
    strings.pop_back();
    const std::string stdout_path = strings.back();
    strings.pop_back();
    Reply reply;
    std::string error;
    reply.exit =
        RunChild(strings, stdout_path, stderr_path, &reply.wall_s, &error);
    if (!WriteAll(reply_fd, &reply, sizeof(reply)) ||
        !WriteString(reply_fd, error)) {
      break;
    }
  }
  ::_exit(0);
}

}  // namespace

Launcher::~Launcher() {
  if (request_fd_ >= 0) ::close(request_fd_);
  if (reply_fd_ >= 0) ::close(reply_fd_);
  if (pid_ > 0) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

bool Launcher::Start(std::string* error) {
  int to_helper[2] = {-1, -1};
  int from_helper[2] = {-1, -1};
  if (::pipe2(to_helper, O_CLOEXEC) != 0 ||
      ::pipe2(from_helper, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    ::close(to_helper[1]);
    ::close(from_helper[0]);
    ServeLaunches(to_helper[0], from_helper[1]);
  }
  ::close(to_helper[0]);
  ::close(from_helper[1]);
  pid_ = pid;
  request_fd_ = to_helper[1];
  reply_fd_ = from_helper[0];
  return true;
}

ChildExit Launcher::Run(const std::vector<std::string>& argv,
                        const std::string& stdout_path,
                        const std::string& stderr_path, double* wall_s,
                        std::string* error) {
  const uint32_t count = static_cast<uint32_t>(argv.size() + 2);
  bool sent = WriteAll(request_fd_, &count, sizeof(count));
  for (const std::string& a : argv) sent = sent && WriteString(request_fd_, a);
  sent = sent && WriteString(request_fd_, stdout_path) &&
         WriteString(request_fd_, stderr_path);
  Reply reply;
  if (!sent || !ReadAll(reply_fd_, &reply, sizeof(reply)) ||
      !ReadString(reply_fd_, error)) {
    *error = "launcher helper is gone";
    return ChildExit{};
  }
  *wall_s = reply.wall_s;
  return reply.exit;
}

ServingCpus::ServingCpus() {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t two;
  CPU_ZERO(&two);
  std::vector<int> taken;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken.size() < 2; --cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      CPU_SET(cpu, &two);
      taken.push_back(cpu);
    }
  }
  if (taken.size() == 2 && ::sched_setaffinity(0, sizeof(two), &two) == 0) {
    cpus_ = taken;
  }
}

ServingCpus::~ServingCpus() {
  if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

bool AcceptingThreads(pid_t pid, std::vector<pid_t>* accepting) {
  accepting->clear();
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return false;
  bool readable = false;
  while (const struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream in(task_dir + "/" + entry->d_name + "/syscall");
    if (!in) continue;
    readable = true;
    long nr = -1;
    if (!(in >> nr)) continue;  // "running"
    bool in_accept = false;
#ifdef SYS_accept
    in_accept = in_accept || nr == SYS_accept;
#endif
#ifdef SYS_accept4
    in_accept = in_accept || nr == SYS_accept4;
#endif
    if (in_accept) {
      accepting->push_back(static_cast<pid_t>(std::atol(entry->d_name)));
    }
  }
  ::closedir(dir);
  return readable;
}

bool PinThread(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(tid, sizeof(one), &one) == 0;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::Connect(const std::string& socket_path) {
  struct sockaddr_un addr {};
  if (socket_path.size() >= sizeof(addr.sun_path)) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool LineClient::Request(const std::string& line, std::string* response) {
  const std::string msg = line + "\n";
  size_t sent = 0;
  while (sent < msg.size()) {
    const ssize_t n =
        ::send(fd_, msg.data() + sent, msg.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      response->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool WaitForSocket(const std::string& socket_path, double timeout_s) {
  const auto t0 = Clock::now();
  for (;;) {
    LineClient probe;
    if (probe.Connect(socket_path)) return true;
    if (SecondsSince(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace perfbench
