#include "hauberk/posix_guardian.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/fnv.hpp"

namespace hauberk::core {

const char* process_verdict_name(ProcessOutcome::Verdict v) noexcept {
  using V = ProcessOutcome::Verdict;
  switch (v) {
    case V::Success: return "success";
    case V::FalseAlarmOrTransient: return "false-alarm-or-transient";
    case V::RecoveredByRestart: return "recovered-by-restart";
    case V::SdcSuspected: return "sdc-suspected";
    case V::Failed: return "failed";
  }
  return "?";
}

std::uint64_t PosixGuardian::digest(const void* data, std::size_t bytes) noexcept {
  return common::fnv1a(common::kFnvTruncatedBasis, data, bytes);
}

SupervisedRun PosixGuardian::run_once(const std::function<ChildReport()>& child) const {
  SupervisedRun run;

  int fds[2];
  if (pipe(fds) != 0) return run;

  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run;
  }

  if (pid == 0) {
    // --- child: run the GPU program, write the report, exit ---
    close(fds[0]);
    ChildReport report{};
    report = child();
    report.ok = 1;
    // Best-effort write; a crash before this point simply leaves the pipe empty.
    ssize_t ignored = write(fds[1], &report, sizeof(report));
    (void)ignored;
    close(fds[1]);
    _exit(0);
  }

  // --- parent: SIGCHLD-driven wait with a preemptive hang timeout ---
  close(fds[1]);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(cfg_.timeout_seconds));
  int status = 0;
  bool exited = false;
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      exited = true;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      // Preemptive hang detection: kill the child (Section VI(i)).
      kill(pid, SIGKILL);
      (void)waitpid(pid, &status, 0);
      run.killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  run.wait_status = status;
  if (run.killed) {
    run.status = ChildStatus::Hung;
  } else if (exited && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    ChildReport report{};
    const ssize_t n = read(fds[0], &report, sizeof(report));
    if (n == static_cast<ssize_t>(sizeof(report)) && report.ok) {
      run.report = report;
      run.status = report.sdc_alarm ? ChildStatus::CleanWithAlarm : ChildStatus::CleanNoAlarm;
    } else {
      run.status = ChildStatus::Crashed;  // exited without a valid report
    }
  } else {
    run.status = ChildStatus::Crashed;  // signal or nonzero exit
  }
  close(fds[0]);
  return run;
}

ProcessOutcome PosixGuardian::supervise(const std::function<ChildReport()>& child) const {
  ProcessOutcome out;

  auto first = run_once(child);
  ++out.executions;
  out.last = first;

  // Failure path: restart up to max_restarts (Fig. 11 left column).
  if (first.status == ChildStatus::Crashed || first.status == ChildStatus::Hung) {
    for (int attempt = 0; attempt < cfg_.max_restarts; ++attempt) {
      ++out.restarts;
      auto r = run_once(child);
      ++out.executions;
      out.last = r;
      if (r.status == ChildStatus::CleanNoAlarm || r.status == ChildStatus::CleanWithAlarm) {
        out.verdict = ProcessOutcome::Verdict::RecoveredByRestart;
        return out;
      }
    }
    out.verdict = ProcessOutcome::Verdict::Failed;
    return out;
  }

  if (first.status == ChildStatus::CleanNoAlarm) {
    out.verdict = ProcessOutcome::Verdict::Success;
    return out;
  }

  // SDC alarm: diagnose by reexecution (Fig. 11 right column).
  auto second = run_once(child);
  ++out.executions;
  out.last = second;
  switch (second.status) {
    case ChildStatus::CleanNoAlarm:
      out.verdict = ProcessOutcome::Verdict::FalseAlarmOrTransient;  // transient fault
      break;
    case ChildStatus::CleanWithAlarm:
      out.verdict = second.report.output_digest == first.report.output_digest
                        ? ProcessOutcome::Verdict::FalseAlarmOrTransient  // false positive
                        : ProcessOutcome::Verdict::SdcSuspected;          // device diagnosis due
      break;
    default:
      out.verdict = ProcessOutcome::Verdict::Failed;
      break;
  }
  return out;
}

}  // namespace hauberk::core
