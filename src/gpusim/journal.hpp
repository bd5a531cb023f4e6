// The golden-launch journal behind segment replay (DESIGN §10).
//
// A *segment* is one (block, barrier epoch, thread) slice of a launch in
// single-block-worker order: what one BlockExec::step_thread call executes.
// A segment is a pure function of the thread's registers at its start and
// of the memory words it reads before writing them.  The journal records,
// per segment of one fault-free launch, exactly those inputs (the register
// file at the previous Barrier stop, and the *first reads*) together with
// the segment's effects (global writes in program order, shared stores in
// program order and as a net list of the last store to each word,
// instruction/cycle deltas, the detector bit, where it stopped).  A later
// launch of the same program, configuration and arguments may then *apply*
// a segment instead of interpreting it whenever its thread still holds its
// golden registers and every first read still returns its golden value —
// the segment would provably execute exactly as it did.
//
// Two more fields serve replay's delta set (DESIGN §10): the launch-start
// word image, so a replay can find every word where its memory starts out
// different from the golden run's, and a reader index from each word to the
// segments that first-read it (and, for global memory, write it), so only
// reads of words that may differ are ever compared.
//
// The snapshot table (DESIGN §10) lets replay interpret only a *window* of a
// segment: per segment, a bounded set of thread states taken where the
// thread took a backward jump (its target is a jump target, so a valid
// resume slot in every position-stable stream), with the segment's progress
// through its first reads and writes at that point and the thread's
// cumulative per-FI-site occurrence counts.  An interpreted slice starts at
// the last snapshot before its first possible difference, and hands the rest
// of its segment back to the journal at a later snapshot whose state it
// reproduces exactly.  An empty table replays whole segments only.
//
// The net effect (DESIGN §10) is the whole launch as one step: every global
// word it wrote, with its final value, and what the launch charged.  A
// replay that provably cannot differ from the golden run (nothing armed, the
// largest thread budget fits, every latent pair the launch touches corrects
// to its launch-start words, and no other changed word is touched) writes
// those words and charges the stored totals without walking any segment.  A
// cleared net effect replays segment by segment.
//
// A *net-effect journal* (LaunchOptions::record_net_effect) holds only the
// fingerprint, the launch-start image, the touched words and the net
// effect: no segments, snapshots or reader index.  It serves campaigns whose
// every trial takes one step (single-bit memory strikes under SEC-DED,
// which always correct to their launch-start words); a replay against it
// that cannot take one step runs as a plain full launch.
//
// Device::launch records a journal on request (LaunchOptions::record_journal)
// and replays one (LaunchOptions::journal) when the launch is eligible; see
// device.hpp for the contract.  A journal is immutable once recorded and is
// shared read-only by every campaign worker.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hauberk::gpusim {

struct LaunchJournal {
  /// A (word address, value) pair: a first read, or a shared-memory store.
  struct Word {
    std::uint32_t addr = 0;
    std::uint32_t value = 0;
    bool operator==(const Word&) const = default;
  };
  /// How a global write combines with memory.  An atomic is a blind update
  /// (the segment reads nothing through it), so it replays as `op(mem, value)`.
  enum class WriteKind : std::uint8_t { Store, AtomicAddI, AtomicAddF };
  struct Write {
    std::uint32_t addr = 0;
    std::uint32_t value = 0;  ///< stored value, or the atomic's addend
    WriteKind kind = WriteKind::Store;
    bool operator==(const Write&) const = default;
  };
  static constexpr std::uint32_t kNoRegs = ~std::uint32_t{0};
  /// One reader-index entry: segment `segment` (an index into `segments`)
  /// first-reads word `addr` at reads[read], or writes it (read == kWrite).
  struct Access {
    std::uint32_t addr = 0;
    std::uint32_t segment = 0;
    std::uint32_t read = 0;
    auto operator<=>(const Access&) const = default;
  };
  static constexpr std::uint32_t kWrite = ~std::uint32_t{0};

  struct Segment {
    std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0;
    /// The thread's watchdog budget used after the segment (cumulative).
    std::uint64_t budget_after = 0;
    /// First reads: reads[first_reads, first_reads + global_reads) are
    /// global words, the next shared_reads entries shared words.
    std::uint32_t first_reads = 0, global_reads = 0, shared_reads = 0;
    std::uint32_t first_write = 0, writes = 0;  ///< into `writes`
    std::uint32_t first_shared_write = 0, shared_writes = 0;  ///< into `shared_writes`
    /// The segment's net shared writes, into `net_shared_writes`: the last
    /// write to each word it stores, those that change the word's golden
    /// value before the segment (the first net_shared_changes) first.
    std::uint32_t first_net_shared_write = 0, net_shared_writes = 0, net_shared_changes = 0;
    /// Offset of the register file at a Barrier stop in `regs`; kNoRegs
    /// for a Done stop.
    std::uint32_t regs = kNoRegs;
    std::uint32_t pc = 0, barrier_pc = 0;  ///< ThreadCtx fields after the stop
    bool done = false;  ///< stopped at Halt (else at a Barrier)
    bool sdc = false;   ///< a detector set the SDC bit inside the segment
    bool operator==(const Segment&) const = default;
  };

  /// One thread state inside a segment, taken right after a taken backward
  /// jump (before its target executes).  Counts are since the segment began,
  /// except `budget` (the thread's cumulative watchdog count).
  struct Snapshot {
    std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0;
    std::uint64_t budget = 0;
    std::uint32_t pc = 0;    ///< the jump target: where the thread resumes
    std::uint32_t regs = 0;  ///< offset of its register file in SnapshotTable::regs
    /// First reads (global, shared) and writes (global, shared) the segment
    /// had made before this point.
    std::uint32_t global_reads = 0, shared_reads = 0, writes = 0, shared_writes = 0;
    bool sdc = false;  ///< a detector set the SDC bit in the segment before this point
    bool operator==(const Snapshot&) const = default;
  };
  /// Every snapshot of a launch, plus the FI-site occurrence counts that let
  /// a trial skip the armed thread's golden prefix.  Counts are cumulative
  /// per thread since the launch began.  Sites whose counts agree at every
  /// recorded point share a column: a count row has `width` entries, and
  /// FI site i's count is row[site_column[i]].
  struct SnapshotTable {
    /// Segment g's snapshots are list[begin[g] .. end[g]), in execution
    /// order; the list itself is in recording order (empty `begin`: no
    /// snapshots at all).
    std::vector<std::uint32_t> begin, end;
    std::vector<Snapshot> list;
    std::vector<std::uint32_t> regs;
    std::uint32_t width = 0;
    std::vector<std::uint32_t> site_column;
    /// Count rows: snapshot i's at counts[i * width], segment g's end at
    /// counts[(list.size() + g) * width].
    std::vector<std::uint32_t> counts;
    bool operator==(const SnapshotTable&) const = default;

    [[nodiscard]] bool empty() const noexcept { return begin.empty(); }
    /// Occurrences of FI site `site` by the thread since the launch began,
    /// at count row `row`: snapshot i's row is i, segment g's end row
    /// segment_end(g).
    [[nodiscard]] std::uint32_t count(std::uint32_t row, std::uint32_t site) const noexcept {
      // A site with no FIHook in the program never executes.
      return site < site_column.size()
                 ? counts[static_cast<std::size_t>(row) * width + site_column[site]]
                 : 0;
    }
    [[nodiscard]] std::uint32_t segment_end(std::uint32_t g) const noexcept {
      return static_cast<std::uint32_t>(list.size()) + g;
    }
    [[nodiscard]] std::size_t bytes() const noexcept {
      return (begin.size() + end.size() + regs.size() + site_column.size() + counts.size()) *
                 sizeof(std::uint32_t) +
             list.size() * sizeof(Snapshot);
    }
  };
  /// At most this many snapshots per segment, spread evenly over its taken
  /// backward jumps, and at least kSnapshotSpacing instructions apart (and
  /// from the segment's start): a window saves little below that, and each
  /// snapshot costs the recording a register copy and a replayed slice a
  /// stop.
  static constexpr std::uint32_t kSnapshotsPerSegment = 16;
  static constexpr std::uint64_t kSnapshotSpacing = 128;
  /// The snapshot table's size bound: a launch with many threads keeps
  /// fewer snapshots per segment (every segment halved alike).
  static constexpr std::size_t kSnapshotTableBytes = 512 * 1024;

  /// Identity of the recorded launch: program plan, launch configuration,
  /// arguments and memory geometry (Device::launch computes and compares it).
  std::uint64_t fingerprint = 0;
  /// Segments grouped per thread: with T threads per block, thread (block
  /// b, index i)'s segments, in epoch order, are
  /// segments[thread_begin[b * T + i] .. thread_begin[b * T + i + 1]).
  std::vector<std::uint32_t> thread_begin;
  std::vector<Segment> segments;
  std::vector<Word> reads;
  std::vector<Write> writes;
  std::vector<Word> shared_writes;
  /// Per segment, its shared writes' net effect (Segment::first_net_shared_write):
  /// what applying a whole segment writes.  The ordered `shared_writes`
  /// serve partial applies (a skipped prefix, a rejoined suffix) and the
  /// write compares of interpreted slices.
  std::vector<Word> net_shared_writes;
  std::vector<std::uint32_t> regs;
  /// Global memory when the launch began, below its store watermark (every
  /// word at or above it was zero).
  std::vector<std::uint32_t> start_image;
  /// Global first reads and writes, sorted (addr, segment, read), one writer
  /// entry per (addr, segment).
  std::vector<Access> global_index;
  /// Shared first reads, block by block: block b's entries are
  /// shared_index[shared_index_begin[b] .. shared_index_begin[b + 1]),
  /// sorted (addr, segment, read).
  std::vector<Access> shared_index;
  std::vector<std::uint32_t> shared_index_begin;
  SnapshotTable snapshots;

  /// Every global word some segment first-reads or writes (every word the
  /// launch loads, stores or updates), sorted: what the one-step rule and
  /// the launch-start diff ask "does the launch touch this word?" of.
  std::vector<std::uint32_t> touched;

  /// What the launch charged — its instruction, cycle and loop-cycle totals
  /// and its SDC bit — and the largest watchdog budget any thread used.
  struct Totals {
    std::uint64_t instructions = 0, cycles = 0, loop_cycles = 0, max_budget = 0;
    bool sdc = false;
    bool operator==(const Totals&) const = default;
  };
  /// The launch's net effect (see the header comment): every global word
  /// the launch wrote, with its final value, in address order; the launch's
  /// totals and its segment count (a full journal's equal its segments'
  /// sums, segment_totals()).  A cleared net effect (`recorded` false) makes
  /// replay go segment by segment.
  struct NetEffect {
    std::vector<Word> words;
    Totals totals;
    std::uint64_t segments = 0;
    bool recorded = false;
    bool operator==(const NetEffect&) const = default;

    [[nodiscard]] bool empty() const noexcept { return !recorded; }
  };
  NetEffect net;

  /// Field-wise equality: both engines record equal journals of a launch.
  bool operator==(const LaunchJournal&) const = default;

  /// Nothing was recorded (the launch was not serial and flat, or failed).
  [[nodiscard]] bool empty() const noexcept { return segments.empty() && net.empty(); }
  /// What applying every segment charges, and the largest budget after any
  /// segment: a full journal's net.totals, recomputed.
  [[nodiscard]] Totals segment_totals() const noexcept {
    Totals t;
    for (const Segment& s : segments) {
      t.instructions += s.instructions;
      t.cycles += s.cycles;
      t.loop_cycles += s.loop_cycles;
      if (s.budget_after > t.max_budget) t.max_budget = s.budget_after;
      t.sdc = t.sdc || s.sdc;
    }
    return t;
  }
  [[nodiscard]] const Segment& segment(std::uint32_t thread_slot,
                                       std::uint32_t k) const noexcept {
    return segments[thread_begin[thread_slot] + k];
  }
  /// Heap bytes the journal holds.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return thread_begin.size() * sizeof(std::uint32_t) + segments.size() * sizeof(Segment) +
           reads.size() * sizeof(Word) + writes.size() * sizeof(Write) +
           (shared_writes.size() + net_shared_writes.size()) * sizeof(Word) +
           regs.size() * sizeof(std::uint32_t) +
           start_image.size() * sizeof(std::uint32_t) +
           (global_index.size() + shared_index.size()) * sizeof(Access) +
           shared_index_begin.size() * sizeof(std::uint32_t) + snapshots.bytes() +
           touched.size() * sizeof(std::uint32_t) + net.words.size() * sizeof(Word);
  }
};

}  // namespace hauberk::gpusim
