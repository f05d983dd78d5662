#include "sim/fault.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "sim/simulator.hpp"

namespace lmk {
namespace {

const char* kind_word(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop:      return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kDelay:     return "delay";
    case FaultKind::kReorder:   return "reorder";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kCrash:     return "crash";
    case FaultKind::kRejoin:    return "rejoin";
  }
  return "?";
}

const char* tie_word(TieBreak t) {
  switch (t) {
    case TieBreak::kFifo:     return "fifo";
    case TieBreak::kReversed: return "reversed";
    case TieBreak::kShuffled: return "shuffled";
  }
  return "?";
}

}  // namespace

std::string FaultDirective::to_string() const {
  std::ostringstream os;
  os << kind_word(kind);
  switch (kind) {
    case FaultKind::kDrop:
    case FaultKind::kReorder:
      os << ' ' << seq;
      break;
    case FaultKind::kDuplicate:
    case FaultKind::kDelay:
      os << ' ' << seq << ' ' << extra;
      break;
    case FaultKind::kPartition:
      os << ' ' << a << ' ' << b << ' ' << at << ' ' << until;
      break;
    case FaultKind::kCrash:
    case FaultKind::kRejoin:
      os << ' ' << a << ' ' << at;
      break;
  }
  return os.str();
}

FaultPlan FaultPlan::generate(std::uint64_t seed, const GenOptions& opts) {
  LMK_CHECK(opts.hosts > 0);
  LMK_CHECK(opts.horizon > 0);
  Rng rng(mix64(seed ^ 0x5c4eduLL));
  FaultPlan plan;
  // Tie order: half the swarm explores seeded permutations, the rest
  // splits between the two legacy deterministic orders.
  switch (rng.below(4)) {
    case 0: plan.tie = TieBreak::kFifo; break;
    case 1: plan.tie = TieBreak::kReversed; break;
    default:
      plan.tie = TieBreak::kShuffled;
      plan.shuffle_seed = rng.next();
      break;
  }
  const auto host = [&] { return static_cast<HostId>(rng.below(opts.hosts)); };
  const auto when = [&] {
    return static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(opts.horizon)));
  };
  std::size_t crashes = 0;
  for (std::size_t i = 0; i < opts.directives; ++i) {
    std::uint64_t k = rng.below(6);
    // No observed-send budget: message faults have nothing to match, so
    // fall through to the time-window kinds.
    if (opts.sends == 0 && k < 4) k = 4;
    if (k == 5 && crashes >= opts.max_crashes) k = 0;
    if (k == 0 && opts.sends == 0) k = 4;
    FaultDirective d;
    switch (k) {
      case 0:
        d.kind = FaultKind::kDrop;
        d.seq = rng.below(opts.sends);
        break;
      case 1:
        d.kind = FaultKind::kDuplicate;
        d.seq = rng.below(opts.sends);
        d.extra = 1 + static_cast<SimTime>(
                          rng.below(static_cast<std::uint64_t>(opts.horizon / 16 + 1)));
        break;
      case 2:
        d.kind = FaultKind::kDelay;
        d.seq = rng.below(opts.sends);
        d.extra = 1 + static_cast<SimTime>(
                          rng.below(static_cast<std::uint64_t>(opts.horizon / 8 + 1)));
        break;
      case 3:
        d.kind = FaultKind::kReorder;
        d.seq = rng.below(opts.sends);
        break;
      case 4: {
        d.kind = FaultKind::kPartition;
        d.a = host();
        d.b = host();  // may equal d.a: isolate the host entirely
        d.at = when();
        d.until = d.at + opts.horizon / 16 + 1 +
                  static_cast<SimTime>(rng.below(
                      static_cast<std::uint64_t>(opts.horizon / 8 + 1)));
        break;
      }
      default: {
        // Crash paired with a later rejoin of the same host, so a
        // conforming plan (max_crashes < replication) never erases
        // every copy of an entry for good.
        ++crashes;
        d.kind = FaultKind::kCrash;
        d.a = host();
        d.at = when() / 2 + 1;  // leave room for the rejoin
        plan.directives.push_back(d);
        d.kind = FaultKind::kRejoin;
        d.at += opts.horizon / 8 + 1 +
                static_cast<SimTime>(rng.below(
                    static_cast<std::uint64_t>(opts.horizon / 4 + 1)));
        break;
      }
    }
    plan.directives.push_back(d);
  }
  return plan;
}

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  os << "# lmk-sched fault plan\n";
  os << "tie " << tie_word(tie) << ' ' << shuffle_seed << '\n';
  for (const FaultDirective& d : directives) os << d.to_string() << '\n';
  return os.str();
}

bool FaultPlan::parse(const std::string& text, FaultPlan* out,
                      std::string* error) {
  FaultPlan plan;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + msg;
    }
    return false;
  };
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    if (word == "tie") {
      std::string mode;
      if (!(ls >> mode >> plan.shuffle_seed)) {
        return fail("expected 'tie <mode> <seed>'");
      }
      if (mode == "fifo") {
        plan.tie = TieBreak::kFifo;
      } else if (mode == "reversed") {
        plan.tie = TieBreak::kReversed;
      } else if (mode == "shuffled") {
        plan.tie = TieBreak::kShuffled;
      } else {
        return fail("unknown tie mode '" + mode + "'");
      }
      continue;
    }
    FaultDirective d;
    bool ok = false;
    if (word == "drop" || word == "reorder") {
      d.kind = word == "drop" ? FaultKind::kDrop : FaultKind::kReorder;
      ok = static_cast<bool>(ls >> d.seq);
    } else if (word == "dup" || word == "delay") {
      d.kind = word == "dup" ? FaultKind::kDuplicate : FaultKind::kDelay;
      ok = static_cast<bool>(ls >> d.seq >> d.extra) && d.extra >= 0;
    } else if (word == "partition") {
      d.kind = FaultKind::kPartition;
      ok = static_cast<bool>(ls >> d.a >> d.b >> d.at >> d.until) &&
           d.at >= 0 && d.until >= d.at;
    } else if (word == "crash" || word == "rejoin") {
      d.kind = word == "crash" ? FaultKind::kCrash : FaultKind::kRejoin;
      ok = static_cast<bool>(ls >> d.a >> d.at) && d.at >= 0;
    } else {
      return fail("unknown directive '" + word + "'");
    }
    if (!ok) return fail("malformed '" + word + "' directive");
    std::string trailing;
    if (ls >> trailing) return fail("trailing tokens after '" + word + "'");
    plan.directives.push_back(d);
  }
  *out = std::move(plan);
  return true;
}

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {}

void FaultInjector::arm(Hooks hooks) {
  LMK_CHECK(!armed_);
  armed_ = true;
  ++armed_epoch_;
  hooks_ = std::move(hooks);
  const std::uint64_t epoch = armed_epoch_;
  for (const FaultDirective& d : plan_.directives) {
    if (d.kind != FaultKind::kCrash && d.kind != FaultKind::kRejoin) continue;
    const bool crash = d.kind == FaultKind::kCrash;
    const HostId target = d.a;
    const SimTime at = std::max(d.at, sim_.now());
    // The epoch guard turns the event into a no-op if the injector was
    // disarmed (or re-armed) before the directive's time arrives.
    sim_.schedule_at(
        at,
        [this, epoch, crash, target] {
          if (!armed_ || armed_epoch_ != epoch) return;
          if (crash) {
            ++stats_.crashes;
            if (hooks_.crash) hooks_.crash(target);
          } else {
            ++stats_.rejoins;
            if (hooks_.rejoin) hooks_.rejoin(target);
          }
        },
        target);
  }
}

void FaultInjector::disarm() {
  armed_ = false;
  ++armed_epoch_;
  // Release reordered messages still in flight: deliver now rather than
  // silently dropping payload the plan only promised to *reorder*.
  for (Held& h : held_) {
    sim_.schedule_after(0, std::move(h.fn), h.to);
  }
  held_.clear();
}

bool FaultInjector::on_send(HostId from, HostId to, SimTime& delay,
                            EventFn& handler) {
  if (!armed_) return false;
  const std::uint64_t seq = next_seq_++;
  ++stats_.sends;
  const SimTime now = sim_.now();
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  SimTime extra_delay = 0;
  SimTime dup_offset = 0;
  for (const FaultDirective& d : plan_.directives) {
    switch (d.kind) {
      case FaultKind::kPartition: {
        if (now < d.at || now >= d.until) break;
        const bool hit = d.a == d.b
                             ? (from == d.a || to == d.a)
                             : ((from == d.a && to == d.b) ||
                                (from == d.b && to == d.a));
        if (hit) drop = true;
        break;
      }
      case FaultKind::kDrop:
        if (d.seq == seq) drop = true;
        break;
      case FaultKind::kDuplicate:
        if (d.seq == seq) {
          duplicate = true;
          dup_offset = d.extra;
        }
        break;
      case FaultKind::kDelay:
        if (d.seq == seq) extra_delay += d.extra;
        break;
      case FaultKind::kReorder:
        if (d.seq == seq) reorder = true;
        break;
      case FaultKind::kCrash:
      case FaultKind::kRejoin:
        break;  // timed directives, handled by arm()
    }
  }
  if (drop) {
    ++stats_.dropped;
    return true;  // handler destroyed with the message
  }
  if (extra_delay > 0) {
    ++stats_.delayed;
    delay += extra_delay;
  }
  if (duplicate) {
    ++stats_.duplicated;
    const SimTime echo = delay + std::max<SimTime>(dup_offset, 1);
    // No-op arrival standing in for the duplicate payload (EventClosure
    // is move-only; see the header's modelling note).
    sim_.schedule_after(echo, [] {}, to);
  }
  // A send to `to` releases any messages held for it: they are
  // scheduled into the same delivery instant, so the tie-break policy
  // decides the interleaving.
  for (std::size_t i = 0; i < held_.size();) {
    if (held_[i].to == to) {
      sim_.schedule_after(delay, std::move(held_[i].fn), to);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (reorder) {
    ++stats_.reordered;
    held_.push_back(Held{to, std::move(handler)});
    return true;
  }
  return false;
}

}  // namespace lmk
