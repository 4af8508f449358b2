#include "arch/arena.h"

#include "arch/types.h"
#include "isa/program.h"
#include "util/rng.h"

namespace clear::arch {
namespace detail {

SegPool& SegPool::instance() {
  // Leaked intentionally: snapshots may be torn down during static
  // destruction (thread_local worker cores), after a pool member would
  // already be gone.
  static SegPool* pool = new SegPool();
  return *pool;
}

Segment* SegPool::acquire() {
  {
    std::lock_guard<std::mutex> g(m_);
    if (!free_list_.empty()) {
      Segment* s = free_list_.back();
      free_list_.pop_back();
      return s;
    }
  }
  return new Segment();
}

void SegPool::release(Segment* s) noexcept {
  {
    std::lock_guard<std::mutex> g(m_);
    if (free_list_.size() < kMaxFree) {
      free_list_.push_back(s);
      return;
    }
  }
  delete s;
}

void SegRef::reset() noexcept {
  if (s_ != nullptr &&
      s_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    SegPool::instance().release(s_);
  }
  s_ = nullptr;
}

}  // namespace detail

void ArenaSnapshot::capture(const SpanView* spans, std::size_t n,
                            const ArenaSnapshot* prev,
                            const std::uint64_t* const* dirty) {
  // Sharing requires an identical span shape; anything else (first snapshot
  // of a run, layout change) falls back to a full copy.
  if (prev != nullptr) {
    bool shape_ok = prev->spans_.size() == n;
    for (std::size_t s = 0; shape_ok && s < n; ++s) {
      shape_ok = prev->spans_[s].words == spans[s].words;
    }
    if (!shape_ok) prev = nullptr;
  }
  // Reuse the span/segment-table storage across captures: a campaign
  // snapshots thousands of times with an identical shape, and rebuilding
  // the tables from scratch would churn an allocation per span each time.
  const bool reuse = spans_.size() == n;
  if (!reuse) {
    spans_.clear();
    spans_.resize(n);
  }
  for (std::size_t s = 0; s < n; ++s) {
    Span& sp = spans_[s];
    sp.words = spans[s].words;
    const std::size_t nsegs = (sp.words + kSegWords - 1) / kSegWords;
    if (sp.segs.size() != nsegs) sp.segs.clear();
    const bool fill = sp.segs.empty();
    if (fill) sp.segs.reserve(nsegs);
    const std::uint64_t* d = dirty[s];
    for (std::size_t i = 0; i < nsegs; ++i) {
      const std::size_t off = i * kSegWords;
      const std::size_t len =
          sp.words - off < kSegWords ? sp.words - off : kSegWords;
      const std::uint64_t* src = spans[s].base + off;
      if (prev != nullptr) {
        const detail::SegRef& p = prev->spans_[s].segs[i];
        // A clean segment equals prev's by the dirty-bit invariant.
        const bool clean = d != nullptr && ((d[i / 64] >> (i % 64)) & 1u) == 0;
        if (clean || std::memcmp(p.words(), src, len * 8) == 0) {
          // Unchanged: share, no copy.  (SegRef self-assignment is safe,
          // so prev may alias this snapshot.)
          if (fill) {
            sp.segs.push_back(p);
          } else {
            sp.segs[i] = p;
          }
          continue;
        }
      }
      detail::Segment* fresh = detail::SegPool::instance().acquire();
      std::memcpy(fresh->w, src, len * 8);
      if (fill) {
        sp.segs.emplace_back(fresh);
      } else {
        sp.segs[i] = detail::SegRef(fresh);
      }
    }
  }
}

void ArenaSnapshot::restore_to(const SpanViewMut* spans, std::size_t n,
                               const ArenaSnapshot* ref,
                               const std::uint64_t* const* dirty) const {
  assert(spans_.size() == n);
  for (std::size_t s = 0; s < n; ++s) {
    const Span& sp = spans_[s];
    assert(sp.words == spans[s].words);
    for (std::size_t i = 0; i < sp.segs.size(); ++i) {
      if (known_equal(s, i, ref, dirty[s])) continue;
      const std::size_t off = i * kSegWords;
      const std::size_t len =
          sp.words - off < kSegWords ? sp.words - off : kSegWords;
      std::memcpy(spans[s].base + off, sp.segs[i].words(), len * 8);
    }
  }
}

bool ArenaSnapshot::matches_prefix(std::size_t span, const std::uint64_t* base,
                                   std::size_t nwords,
                                   const ArenaSnapshot* ref,
                                   const std::uint64_t* dirty) const {
  const Span& sp = spans_[span];
  assert(nwords <= sp.words);
  std::size_t done = 0;
  for (std::size_t i = 0; done < nwords; ++i) {
    const std::size_t off = i * kSegWords;
    const std::size_t seg_len =
        sp.words - off < kSegWords ? sp.words - off : kSegWords;
    const std::size_t len =
        nwords - done < seg_len ? nwords - done : seg_len;
    if (!known_equal(span, i, ref, dirty) &&
        std::memcmp(sp.segs[i].words(), base + off, len * 8) != 0) {
      return false;
    }
    done += len;
  }
  return true;
}

bool ArenaSnapshot::matches_live(std::size_t span, const std::uint64_t* base,
                                 const std::uint64_t* live) const {
  const Span& sp = spans_[span];
  static_assert(kSegWords % 64 == 0, "a live word must not straddle segments");
  for (std::size_t i = 0; i < sp.segs.size(); ++i) {
    const std::size_t off = i * kSegWords;
    const std::size_t len =
        sp.words - off < kSegWords ? sp.words - off : kSegWords;
    const std::uint64_t* snap = sp.segs[i].words();
    for (std::size_t c = 0; c < len; c += 64) {
      // Branch-free difference mask of up to 64 words, then one test
      // against their live bits.
      const std::size_t n = len - c < 64 ? len - c : 64;
      std::uint64_t diff = 0;
      for (std::size_t k = 0; k < n; ++k) {
        diff |= static_cast<std::uint64_t>(snap[c + k] != base[off + c + k])
                << k;
      }
      if ((diff & live[(off + c) / 64]) != 0) return false;
    }
  }
  return true;
}

void StateArena::finish_layout(std::uint64_t identity) {
  std::size_t off = 0;
  std::size_t fwd = 0;
  for (std::size_t i = 0; i < secs_.size(); ++i) {
    secs_[i].off_words = off;
    off += secs_[i].words;
    if (i < aux_from_) fwd = off;
  }
  fwd_words_ = aux_from_ == static_cast<std::size_t>(-1) ? off : fwd;
  // assign() both sizes and zero-fills: this IS the reset of every
  // arena-resident field.  Capacity is retained across begins.
  buf_.assign(off, 0);
  const std::size_t nsegs = (off + kSegWords - 1) / kSegWords;
  dirty_.assign((nsegs + 63) / 64, 0);
  laid_out_ = true;
  std::uint64_t h = util::hash_combine(kArenaLayoutVersion, ff_words_);
  for (const Section& s : secs_) {
    h = util::hash_combine(h, s.elem_size);
    h = util::hash_combine(h, s.count);
  }
  h = util::hash_combine(h, fwd_words_);
  fp_ = util::hash_combine(h, identity);
}

std::uint64_t layout_identity(const char* core_name, const isa::Program& prog,
                              const ResilienceConfig* cfg) {
  std::uint64_t h = util::hash_combine(0xC1EA5A12E7A1ULL, kArenaLayoutVersion);
  for (const char* p = core_name; *p != '\0'; ++p) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(*p));
  }
  h = util::hash_combine(h, prog.code.size());
  for (std::uint32_t w : prog.code) h = util::hash_combine(h, w);
  h = util::hash_combine(h, prog.data.size());
  for (std::uint32_t w : prog.data) h = util::hash_combine(h, w);
  h = util::hash_combine(h, prog.data_base);
  h = util::hash_combine(h, prog.mem_bytes);
  if (cfg == nullptr) return util::hash_combine(h, 0);
  h = util::hash_combine(h, 1);
  h = util::hash_combine(h, prog.dfc_signatures.size());
  h = util::hash_combine(h, cfg->prot.size());
  for (FFProt p : cfg->prot) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(p));
  }
  h = util::hash_combine(h, cfg->parity_group.size());
  for (std::int32_t g : cfg->parity_group) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(g)));
  }
  h = util::hash_combine(h, cfg->dfc ? 1 : 0);
  h = util::hash_combine(h, cfg->monitor ? 1 : 0);
  h = util::hash_combine(h, static_cast<std::uint64_t>(cfg->recovery));
  return h;
}

}  // namespace clear::arch
