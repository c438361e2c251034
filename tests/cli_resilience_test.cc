// End-to-end resilience tests over the real binaries: spawn `tcvsd`, drive
// it with `tcvs`, SIGKILL it, restart it from the same data directory, and
// check the client's verified view survives — plus the degraded read-only
// mode against a dead server. The binary paths are injected by CMake.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace tcvs {
namespace {

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("tcvs_cli_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// A spawned tcvsd process; SIGKILLed on destruction if still running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }

  /// Spawns `tcvsd --port 0 --data-dir <dir> [extra...]` and parses the
  /// ephemeral port from its "listening on 127.0.0.1:PORT" banner.
  bool Start(const std::string& data_dir,
             const std::vector<std::string>& extra = {}) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      std::vector<std::string> args = {TCVSD_BIN, "--port", "0",
                                       "--data-dir", data_dir};
      args.insert(args.end(), extra.begin(), extra.end());
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(TCVSD_BIN, argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    // Keep the read end open for the daemon's whole life: closing it would
    // SIGPIPE the daemon when it prints its shutdown banner.
    out_ = ::fdopen(fds[0], "r");
    if (out_ == nullptr) return false;
    char line[256];
    bool found = false;
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      unsigned parsed = 0;
      if (std::sscanf(line, "%*s listening on 127.0.0.1:%u", &parsed) == 1) {
        port_ = static_cast<uint16_t>(parsed);
        found = true;
        break;
      }
    }
    return found && port_ != 0;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    ClosePipe();
  }

  /// Reaps a daemon expected to exit on its own (e.g. after `tcvs shutdown`).
  int Wait() {
    int status = 0;
    if (pid_ > 0) {
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    ClosePipe();
    return status;
  }

  uint16_t port() const { return port_; }

 private:
  void ClosePipe() {
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
  uint16_t port_ = 0;
};

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

/// Runs `binary <args>`, capturing stdout+stderr; returns the exit code.
/// With `timeout_s` > 0 the run is killed after that long (exit code 124),
/// so a process that should have refused to start cannot hang the test.
int RunBinary(const std::string& binary, const std::vector<std::string>& args,
              std::string* output, int timeout_s = 0) {
  std::string cmd = Quoted(binary);
  if (timeout_s > 0) cmd = "timeout " + std::to_string(timeout_s) + " " + cmd;
  for (const auto& a : args) cmd += " " + Quoted(a);
  cmd += " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  output->clear();
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs `tcvs <args>`, capturing stdout+stderr; returns the exit code.
int RunTcvs(const std::vector<std::string>& args, std::string* output) {
  return RunBinary(TCVS_BIN, args, output);
}

std::vector<std::string> WithTransport(uint16_t port, const std::string& state,
                                       std::vector<std::string> tail) {
  std::vector<std::string> args = {
      "--server",     "127.0.0.1:" + std::to_string(port),
      "--user",       "1",
      "--state",      state,
      "--retries",    "3",
      "--backoff-ms", "10",
      "--timeout-ms", "2000"};
  args.insert(args.end(), tail.begin(), tail.end());
  return args;
}

TEST(CliResilienceTest, SigkillRestartPreservesVerifiedState) {
  TempDir dir;
  std::string data_dir = dir.str() + "/data";
  std::filesystem::create_directories(data_dir);
  std::string state = dir.str() + "/alice.state";

  Daemon daemon;
  ASSERT_TRUE(daemon.Start(data_dir));

  std::string out;
  ASSERT_EQ(RunTcvs(WithTransport(daemon.port(), state,
                                  {"commit", "f.c", "0", "hello wal"}),
                    &out), 0)
      << out;
  EXPECT_NE(out.find("revision 1"), std::string::npos) << out;

  // SIGKILL: no shutdown path runs; durability comes from the fsynced WAL.
  daemon.Kill();

  Daemon revived;
  ASSERT_TRUE(revived.Start(data_dir));
  ASSERT_EQ(RunTcvs(WithTransport(revived.port(), state, {"cat", "f.c"}),
                    &out), 0)
      << out;
  EXPECT_EQ(out, "hello wal");

  // The client's registers (committed pre-kill) verified against the
  // restarted server: one more mutation keeps the chain going.
  ASSERT_EQ(RunTcvs(WithTransport(revived.port(), state,
                                  {"commit", "f.c", "1", "after restart"}),
                    &out), 0)
      << out;
  EXPECT_NE(out.find("revision 2"), std::string::npos) << out;
}

TEST(CliResilienceTest, DegradedReadOnlyModeServesVerifiedCache) {
  TempDir dir;
  std::string data_dir = dir.str() + "/data";
  std::filesystem::create_directories(data_dir);
  std::string state = dir.str() + "/alice.state";

  uint16_t port;
  {
    Daemon daemon;
    ASSERT_TRUE(daemon.Start(data_dir));
    port = daemon.port();
    std::string out;
    ASSERT_EQ(RunTcvs(WithTransport(port, state,
                                    {"commit", "src/f.c", "0", "cached v1"}),
                      &out), 0)
        << out;
    // Populate the cache's listing knowledge too.
    ASSERT_EQ(RunTcvs(WithTransport(port, state, {"cat", "src/f.c"}), &out), 0);
    EXPECT_NE(out.find("cached v1"), std::string::npos) << out;
  }  // Daemon SIGKILLed here; the port now refuses connections.

  auto degraded = [&](std::vector<std::string> tail) {
    std::vector<std::string> args = {
        "--server",     "127.0.0.1:" + std::to_string(port),
        "--user",       "1",
        "--state",      state,
        "--retries",    "2",
        "--backoff-ms", "5",
        "--timeout-ms", "300"};
    args.insert(args.end(), tail.begin(), tail.end());
    return args;
  };

  // Reads degrade to the verified cache and still exit 0.
  std::string out;
  ASSERT_EQ(RunTcvs(degraded({"cat", "src/f.c"}), &out), 0) << out;
  EXPECT_NE(out.find("DEGRADED read-only mode"), std::string::npos) << out;
  EXPECT_NE(out.find("cached v1"), std::string::npos) << out;

  ASSERT_EQ(RunTcvs(degraded({"ls", "src/"}), &out), 0) << out;
  EXPECT_NE(out.find("src/f.c"), std::string::npos) << out;
  EXPECT_NE(out.find("degraded: verified cache"), std::string::npos) << out;

  // A file never verified locally cannot be served, even degraded.
  EXPECT_NE(RunTcvs(degraded({"cat", "src/other.c"}), &out), 0);

  // Mutations never degrade: read-only means read-only.
  EXPECT_NE(RunTcvs(degraded({"commit", "src/f.c", "1", "v2"}), &out), 0);
  EXPECT_EQ(out.find("committed"), std::string::npos) << out;
}

TEST(CliResilienceTest, ShutdownCommandStopsDaemon) {
  TempDir dir;
  std::string data_dir = dir.str() + "/data";
  std::filesystem::create_directories(data_dir);

  Daemon daemon;
  ASSERT_TRUE(daemon.Start(data_dir));
  std::string out;
  ASSERT_EQ(RunTcvs({"--server", "127.0.0.1:" + std::to_string(daemon.port()),
                     "shutdown"},
                    &out), 0)
      << out;
  int status = daemon.Wait();
  EXPECT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// A port is a number in 0..65535; anything else is a usage error (exit 2)
// in both binaries — never wrapped (70000 would become 4464) or zeroed
// ("abc" would become 0, an ephemeral port). The other numeric arguments
// follow the same rule within their own ranges.
TEST(CliResilienceTest, BadPortsAreUsageErrors) {
  TempDir dir;
  const std::string state = dir.str() + "/alice.state";
  constexpr int kTimeoutS = 5;
  std::string out;
  for (const std::string bad : {"70000", "65536", "abc", "", "-1", "80x"}) {
    EXPECT_EQ(RunBinary(TCVS_BIN,
                        {"--server", "127.0.0.1:" + bad, "--user", "1",
                         "--state", state, "ls"},
                        &out, kTimeoutS),
              2)
        << "tcvs --server port '" << bad << "': " << out;
    EXPECT_EQ(RunBinary(TCVS_BIN, {"--admin", "127.0.0.1:" + bad, "stats"},
                        &out, kTimeoutS),
              2)
        << "tcvs --admin port '" << bad << "': " << out;
    EXPECT_EQ(RunBinary(TCVSD_BIN, {"--port", bad}, &out, kTimeoutS), 2)
        << "tcvsd --port '" << bad << "': " << out;
    EXPECT_EQ(RunBinary(TCVSD_BIN, {"--port", "0", "--admin-port", bad}, &out,
                        kTimeoutS),
              2)
        << "tcvsd --admin-port '" << bad << "': " << out;
  }

  // Every other numeric argument is validated the same way: a value that is
  // not a decimal number in range is a usage error, never atoi's guess
  // ("1x" → 1, "abc" → 0, "-1" → 4294967295).
  for (const std::string bad : {"abc", "", "-1", "1x", "99999999999999999999"}) {
    for (const std::string flag :
         {"--user", "--retries", "--backoff-ms", "--timeout-ms"}) {
      std::vector<std::string> args = {"--server", "127.0.0.1:1", "--user",
                                       "1", "--state", state, flag, bad, "ls"};
      EXPECT_EQ(RunBinary(TCVS_BIN, args, &out, kTimeoutS), 2)
          << "tcvs " << flag << " '" << bad << "': " << out;
    }
    EXPECT_EQ(RunBinary(TCVS_BIN,
                        {"--server", "127.0.0.1:1", "--user", "1", "--state",
                         state, "commit", "a.c", bad, "content"},
                        &out, kTimeoutS),
              2)
        << "tcvs commit base revision '" << bad << "': " << out;
    for (const std::string flag :
         {"--fanout", "--threads", "--group-commit-window-us",
          "--log-json-interval-ms", "--trace-capacity", "--slow-op-us",
          "--profile-hz"}) {
      EXPECT_EQ(RunBinary(TCVSD_BIN, {"--port", "0", flag, bad}, &out,
                          kTimeoutS),
                2)
          << "tcvsd " << flag << " '" << bad << "': " << out;
    }
  }
  EXPECT_EQ(RunBinary(TCVS_BIN,
                      {"--server", "127.0.0.1:1", "--user", "4294967296",
                       "--state", state, "ls"},
                      &out, kTimeoutS),
            2)
      << out;
  // A fanout below 2 breaks the tree protocol (an honest server's proofs
  // fail to verify, and 0 crashes Delete): a usage error too.
  for (const std::string fanout : {"0", "1"}) {
    EXPECT_EQ(RunBinary(TCVSD_BIN, {"--port", "0", "--fanout", fanout}, &out,
                        kTimeoutS),
              2)
        << "tcvsd --fanout " << fanout << ": " << out;
  }
  EXPECT_FALSE(std::filesystem::exists(state));

  // A valid port gets past parsing: nothing listens on port 1, so the
  // command fails as unreachable (exit 1), not as a usage error.
  EXPECT_EQ(RunBinary(TCVS_BIN, {"--admin", "127.0.0.1:1", "stats"}, &out,
                      kTimeoutS),
            1)
      << out;
}

}  // namespace
}  // namespace tcvs
