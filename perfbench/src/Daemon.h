//===- Daemon.h - A spawned serve daemon process ----------------*- C++ -*-===//
///
/// \file
/// The serve::Server daemon the benchmark talks to over a real Unix
/// socket, run as a child process of this binary ("daemon" subcommand) so
/// its memory and threads are its own.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_PERFBENCH_DAEMON_H
#define GRANII_PERFBENCH_DAEMON_H

#include "Common.h"

#include "serve/Client.h"

#include <cstring>
#include <filesystem>
#include <signal.h>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <vector>

extern char **environ;

namespace perfbench {

/// A spawned daemon process; the destructor makes sure it is gone.
class Daemon {
public:
  Daemon(const RunConfig &Cfg, const std::string &Socket,
         const std::string &CacheDir)
      : Socket(Socket) {
    std::vector<std::string> Env;
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "GRANII_CACHE_DIR=", 17) != 0)
        Env.push_back(*E);
    Env.push_back("GRANII_CACHE_DIR=" + CacheDir);
    std::vector<std::string> Args = {Cfg.SelfExe, "daemon", "--socket", Socket};
    std::vector<char *> EnvP, ArgV;
    for (std::string &S : Env)
      EnvP.push_back(S.data());
    EnvP.push_back(nullptr);
    for (std::string &S : Args)
      ArgV.push_back(S.data());
    ArgV.push_back(nullptr);
    std::filesystem::create_directories(CacheDir);
    if (posix_spawn(&Pid, Cfg.SelfExe.c_str(), nullptr, nullptr, ArgV.data(),
                    EnvP.data()) != 0)
      Pid = -1;
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool spawned() const { return Pid > 0; }

  /// Connects \p C, retrying while the daemon is still binding.
  bool connect(granii::serve::Client &C) const {
    Clock::time_point Start = Clock::now();
    while (secondsSince(Start) < 30.0) {
      if (C.connect(Socket))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Graceful drain through the shutdown verb, then reap.
  bool stop() {
    if (Pid <= 0)
      return true;
    granii::serve::Client C;
    granii::serve::ShutdownResponse Resp;
    bool Ok = C.connect(Socket) && C.shutdown(Resp) && Resp.Status.Ok;
    C.close();
    if (!Ok)
      kill(Pid, SIGTERM);
    int Status = 0;
    waitpid(Pid, &Status, 0);
    Pid = -1;
    return Ok && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  std::string Socket;
  pid_t Pid = -1;
};

} // namespace perfbench

#endif // GRANII_PERFBENCH_DAEMON_H
