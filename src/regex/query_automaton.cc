#include "src/regex/query_automaton.h"

#include <string>
#include <utility>

namespace pereach {

namespace {

/// Glushkov attributes of a subexpression over position bitmasks.
struct GlushkovInfo {
  bool nullable = false;
  uint64_t first = 0;
  uint64_t last = 0;
};

/// Computes nullable/first/last and fills follow[] (indexed by position).
/// Positions are assigned left-to-right starting at `*next_pos`.
GlushkovInfo Analyze(const Regex& r, std::vector<uint64_t>* follow,
                     std::vector<LabelId>* pos_label, uint32_t* next_pos) {
  GlushkovInfo info;
  switch (r.kind()) {
    case Regex::Kind::kEpsilon:
      info.nullable = true;
      return info;
    case Regex::Kind::kSymbol: {
      const uint32_t p = (*next_pos)++;
      PEREACH_CHECK_LT(p, 64u);
      pos_label->push_back(r.symbol());
      follow->push_back(0);
      info.nullable = false;
      info.first = info.last = uint64_t{1} << p;
      return info;
    }
    case Regex::Kind::kConcat: {
      const GlushkovInfo a = Analyze(r.left(), follow, pos_label, next_pos);
      const GlushkovInfo b = Analyze(r.right(), follow, pos_label, next_pos);
      info.nullable = a.nullable && b.nullable;
      info.first = a.first | (a.nullable ? b.first : 0);
      info.last = b.last | (b.nullable ? a.last : 0);
      uint64_t lasts = a.last;
      while (lasts != 0) {
        const int p = __builtin_ctzll(lasts);
        (*follow)[p] |= b.first;
        lasts &= lasts - 1;
      }
      return info;
    }
    case Regex::Kind::kUnion: {
      const GlushkovInfo a = Analyze(r.left(), follow, pos_label, next_pos);
      const GlushkovInfo b = Analyze(r.right(), follow, pos_label, next_pos);
      info.nullable = a.nullable || b.nullable;
      info.first = a.first | b.first;
      info.last = a.last | b.last;
      return info;
    }
    case Regex::Kind::kStar: {
      const GlushkovInfo a = Analyze(r.left(), follow, pos_label, next_pos);
      info.nullable = true;
      info.first = a.first;
      info.last = a.last;
      uint64_t lasts = a.last;
      while (lasts != 0) {
        const int p = __builtin_ctzll(lasts);
        (*follow)[p] |= a.first;
        lasts &= lasts - 1;
      }
      return info;
    }
  }
  return info;
}

}  // namespace

Result<QueryAutomaton> QueryAutomaton::FromRegex(const Regex& r) {
  const size_t num_positions = r.NumSymbols();
  if (num_positions + 2 > kMaxStates) {
    return Status::InvalidArgument(
        "regex has " + std::to_string(num_positions) +
        " symbol occurrences; the query automaton caps at " +
        std::to_string(kMaxStates - 2));
  }

  std::vector<uint64_t> follow;
  std::vector<LabelId> pos_label;
  uint32_t next_pos = 0;
  const GlushkovInfo info = Analyze(r, &follow, &pos_label, &next_pos);
  PEREACH_CHECK_EQ(static_cast<size_t>(next_pos), num_positions);

  QueryAutomaton a;
  // State layout: 0 = u_s, 1 = u_t, 2 + p = position p.
  a.labels_.assign(num_positions + 2, kInvalidLabel);
  a.out_.assign(num_positions + 2, 0);
  for (uint32_t p = 0; p < num_positions; ++p) a.labels_[2 + p] = pos_label[p];

  const auto shift_positions = [](uint64_t mask) { return mask << 2; };

  a.out_[kStart] = shift_positions(info.first);
  if (info.nullable) a.out_[kStart] |= uint64_t{1} << kFinal;
  for (uint32_t p = 0; p < num_positions; ++p) {
    a.out_[2 + p] = shift_positions(follow[p]);
    if ((info.last >> p) & 1) a.out_[2 + p] |= uint64_t{1} << kFinal;
  }
  a.RebuildLabelIndex();
  return a;
}

QueryAutomaton QueryAutomaton::FromParts(std::vector<LabelId> labels,
                                         std::vector<uint64_t> out) {
  PEREACH_CHECK_EQ(labels.size(), out.size());
  PEREACH_CHECK_GE(labels.size(), size_t{2});
  PEREACH_CHECK_LE(labels.size(), kMaxStates);
  const size_t n = labels.size();
  const uint64_t valid =
      (n >= 64) ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  for (uint64_t m : out) PEREACH_CHECK_EQ(m & ~valid, uint64_t{0});
  QueryAutomaton a;
  a.labels_ = std::move(labels);
  a.out_ = std::move(out);
  a.RebuildLabelIndex();
  return a;
}

QueryAutomaton QueryAutomaton::WildcardStar() {
  QueryAutomaton a;
  // States: u_s, u_t, and one wildcard state 2 with a self-loop.
  a.labels_ = {kInvalidLabel, kInvalidLabel, kWildcardLabel};
  a.out_.assign(3, 0);
  a.out_[kStart] = (uint64_t{1} << kFinal) | (uint64_t{1} << 2);
  a.out_[2] = (uint64_t{1} << kFinal) | (uint64_t{1} << 2);
  a.RebuildLabelIndex();
  return a;
}

size_t QueryAutomaton::num_transitions() const {
  size_t count = 0;
  for (uint64_t m : out_) count += static_cast<size_t>(__builtin_popcountll(m));
  return count;
}

uint64_t QueryAutomaton::StatesWithLabel(LabelId label) const {
  auto it = states_by_label_.find(label);
  return (it == states_by_label_.end() ? 0 : it->second) | wildcard_mask_;
}

bool QueryAutomaton::AcceptsInterior(std::span<const LabelId> interior) const {
  uint64_t current = uint64_t{1} << kStart;
  for (LabelId l : interior) {
    uint64_t next = 0;
    uint64_t cur = current;
    while (cur != 0) {
      const int q = __builtin_ctzll(cur);
      next |= out_[q];
      cur &= cur - 1;
    }
    current = next & StatesWithLabel(l);
    if (current == 0) return false;
  }
  uint64_t cur = current;
  while (cur != 0) {
    const int q = __builtin_ctzll(cur);
    if ((out_[q] >> kFinal) & 1) return true;
    cur &= cur - 1;
  }
  return false;
}

void QueryAutomaton::Serialize(Encoder* enc) const {
  enc->PutVarint(labels_.size());
  for (LabelId l : labels_) {
    // 0 = no label (u_s/u_t), 1 = wildcard, else label + 2.
    if (l == kInvalidLabel) {
      enc->PutVarint(0);
    } else if (l == kWildcardLabel) {
      enc->PutVarint(1);
    } else {
      enc->PutVarint(static_cast<uint64_t>(l) + 2);
    }
  }
  for (uint64_t m : out_) enc->PutU64(m);
}

QueryAutomaton QueryAutomaton::Deserialize(Decoder* dec) {
  QueryAutomaton a;
  const size_t n = dec->GetCount();
  if (!dec->Require(n <= kMaxStates, "automaton: too many states")) return a;
  a.labels_.resize(n);
  for (LabelId& l : a.labels_) {
    const uint64_t v = dec->GetVarint();
    l = (v == 0) ? kInvalidLabel
                 : (v == 1) ? kWildcardLabel : static_cast<LabelId>(v - 2);
  }
  a.out_.resize(n);
  for (uint64_t& m : a.out_) m = dec->GetU64();
  a.RebuildLabelIndex();
  return a;
}

size_t QueryAutomaton::ByteSize() const {
  Encoder enc;
  Serialize(&enc);
  return enc.size();
}

void QueryAutomaton::RebuildLabelIndex() {
  states_by_label_.clear();
  wildcard_mask_ = 0;
  for (uint32_t q = 2; q < labels_.size(); ++q) {
    if (labels_[q] == kWildcardLabel) {
      wildcard_mask_ |= uint64_t{1} << q;
    } else {
      states_by_label_[labels_[q]] |= uint64_t{1} << q;
    }
  }
}

}  // namespace pereach
