// Child processes (the real `divexp` entry points) and a line client
// for the serving daemon's unix socket.
#ifndef PERFBENCH_HARNESS_PROC_H_
#define PERFBENCH_HARNESS_PROC_H_

#include <sched.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

struct ChildExit {
  bool ok = false;  ///< exited normally with code 0
  int exit_code = -1;
  int term_signal = 0;
  double maxrss_mb = 0.0;  ///< ru_maxrss of the child, in 1e6 bytes
};

/// One spawned child. The destructor kills and reaps a child that is
/// still running, so no process outlives the harness.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawns argv (argv[0] is the executable path) with stdout and
  /// stderr appended to the given files. With `stdin_pipe` the child
  /// reads stdin from a pipe the harness holds open until Wait();
  /// otherwise stdin is /dev/null.
  bool Start(const std::vector<std::string>& argv,
             const std::string& stdout_path, const std::string& stderr_path,
             bool stdin_pipe, std::string* error);

  /// Closes the stdin pipe (EOF is the daemon's stop signal), then
  /// reaps the child. With `timeout_s` > 0 a child still alive after
  /// that long gets SIGTERM, then SIGKILL.
  ChildExit Wait(double timeout_s = 0.0);

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
};

/// Runs argv to completion; `wall_s` receives spawn-to-reap seconds.
ChildExit RunChild(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path, double* wall_s,
                   std::string* error);

/// Runs children (RunChild) from a helper process forked at start-up.
/// On Linux, exec copies the high-water RSS of the process that spawned
/// the child into the child's ru_maxrss. Spawned from the harness,
/// which holds datasets and request pools, a small audit would report
/// the harness's peak instead of its own. The helper stays as small as
/// the harness was when it forked.
class Launcher {
 public:
  Launcher() = default;
  /// Closes the request pipe, which ends the helper, and reaps it.
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Forks the helper. Call it early, before the harness starts threads
  /// or allocates much.
  bool Start(std::string* error);
  /// RunChild, in the helper.
  ChildExit Run(const std::vector<std::string>& argv,
                const std::string& stdout_path,
                const std::string& stderr_path, double* wall_s,
                std::string* error);

 private:
  pid_t pid_ = -1;
  int request_fd_ = -1;  ///< harness -> helper
  int reply_fd_ = -1;    ///< helper -> harness
};

/// While alive, confines the calling thread, and every thread and child
/// process it starts meanwhile, to the last two CPUs it may run on;
/// restores the previous mask on destruction. The serving daemon and
/// its clients share those two CPUs. In a VM a wake-up on another vCPU
/// costs an inter-processor interrupt whose latency swings with the
/// neighbours' load. On a 4-vCPU VM, p50 lookup latency for the same
/// inputs varied 2x between daemon restarts unpinned, and by about 15%
/// pinned. RunClosedLoop goes further and gives each client and the
/// daemon thread serving it one of the two CPUs.
class ServingCpus {
 public:
  ServingCpus();
  ~ServingCpus();
  ServingCpus(const ServingCpus&) = delete;
  ServingCpus& operator=(const ServingCpus&) = delete;

  /// The two CPUs, or none if pinning failed.
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

/// Thread ids of process `pid` that are blocked in accept(2), read from
/// /proc/<pid>/task/<tid>/syscall. False if that is not readable.
bool AcceptingThreads(pid_t pid, std::vector<pid_t>* accepting);

/// Confines thread `tid` (0: the calling thread) to `cpu`.
bool PinThread(pid_t tid, int cpu);

/// Newline-delimited request/response client over a unix socket.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(const std::string& socket_path);
  /// Sends `line` plus '\n' and reads one response line (without '\n').
  bool Request(const std::string& line, std::string* response);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Polls until a connection to `socket_path` succeeds or `timeout_s`
/// passes.
bool WaitForSocket(const std::string& socket_path, double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROC_H_
