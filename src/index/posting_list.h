// Compressed posting list: the per-term inverted list of <doc, tf> pairs.
//
// The paper's Section II leans on posting-list statistics (average length
// 186.7 vs maximum 127,848 on WSJ) to argue PIR is impractical; this module
// provides the same structures and byte-accurate size accounting.
//
// Storage is BLOCK-ENCODED: postings are grouped in blocks of
// kPostingBlockSize (128). Within a block the doc-id deltas are stored
// first, then the term frequencies (group-varint-style layout: the two
// streams batch-decode into the parallel arrays of a PostingBlock with no
// interleaving branches). The delta chain is continuous across blocks —
// the first delta of block b+1 is relative to the last doc of block b, and
// the very first delta of the list is the absolute doc id — so ByteSize()
// is byte-for-byte the classic interleaved delta+varint size the paper's
// Fig. 6 / §II arithmetic (and IndexSnapshot::ComputeStats's cross-segment
// re-pricing) assume. A per-block directory carries each block's offset,
// count and last doc id, the base of the next block's delta chain.
#ifndef TOPPRIV_INDEX_POSTING_LIST_H_
#define TOPPRIV_INDEX_POSTING_LIST_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "util/status.h"

namespace toppriv::index {

/// One posting: document id and within-document term frequency.
struct Posting {
  corpus::DocId doc = 0;
  uint32_t tf = 0;

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.doc == b.doc && a.tf == b.tf;
  }
};

/// Postings per block. 128 keeps a decoded block (1 KiB of doc ids + 512 B
/// of tfs) inside L1 while amortizing the per-block directory entry to
/// well under a bit per posting.
inline constexpr uint32_t kPostingBlockSize = 128;

/// One batch-decoded block: parallel doc/tf arrays, valid in [0, count).
/// Reused across blocks (and queries) by evaluators; ~1.5 KiB, so it lives
/// in scratch space or on the stack, never per-posting on the heap.
struct PostingBlock {
  std::array<corpus::DocId, kPostingBlockSize> docs;
  std::array<uint32_t, kPostingBlockSize> tfs;
  uint32_t count = 0;
};

/// Immutable block-encoded posting list.
///
/// Postings are appended in strictly increasing doc order; doc ids are
/// delta-encoded and term frequencies varint-encoded, matching how real
/// engines (and the paper's size arithmetic) store inverted lists.
class PostingList {
 public:
  /// Per-block directory entry. `offset` points at the block's delta group
  /// inside the encoded byte stream; `last_doc` is the block's last doc id,
  /// from which DecodeBlock resumes the next block's delta chain.
  struct BlockInfo {
    uint32_t offset = 0;
    uint32_t count = 0;
    corpus::DocId last_doc = 0;
  };

  PostingList() = default;

  /// Incremental builder; Append requires ascending doc ids.
  class Builder {
   public:
    Builder() = default;
    void Append(corpus::DocId doc, uint32_t tf);
    /// Finalizes into an immutable list.
    PostingList Build();

   private:
    void FlushBlock();

    std::string bytes_;
    std::vector<BlockInfo> blocks_;
    uint32_t count_ = 0;
    corpus::DocId last_doc_ = 0;
    bool has_any_ = false;
    // Pending (not yet flushed) block.
    std::array<uint64_t, kPostingBlockSize> pending_deltas_;
    std::array<uint32_t, kPostingBlockSize> pending_tfs_;
    uint32_t pending_ = 0;
  };

  /// Forward iterator over decoded postings. Batch-decodes one block at a
  /// time into an internal PostingBlock. Segment merges and stats walks
  /// use it; the evaluation core calls DecodeBlock directly.
  class Iterator {
   public:
    explicit Iterator(const PostingList* list);
    /// True if a current posting is available.
    bool Valid() const { return valid_; }
    const Posting& Get() const { return current_; }
    void Next();

   private:
    const PostingList* list_;
    PostingBlock block_;
    size_t block_idx_ = 0;
    uint32_t pos_ = 0;
    Posting current_;
    bool valid_ = false;
  };

  Iterator begin() const { return Iterator(this); }

  /// Number of postings (paper: inverted-list length).
  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Block directory.
  size_t num_blocks() const { return blocks_.size(); }
  const BlockInfo& block(size_t b) const;

  /// Batch-decodes block `b` into `out` (out->count postings).
  void DecodeBlock(size_t b, PostingBlock* out) const;

  /// Encoded byte size (used by index_stats and Fig. 6). Identical to the
  /// classic interleaved delta+varint encoding: the block layout only
  /// reorders varints, never adds bytes, and the directory is derived
  /// metadata, not payload.
  size_t ByteSize() const { return bytes_.size(); }

  /// Decodes the whole list (convenience for tests / scoring).
  std::vector<Posting> Decode() const;

  /// Serialization. EncodeTo writes the versioned block format (a format
  /// tag above the 32-bit count space keeps it distinguishable from legacy
  /// headers); DecodeFrom additionally accepts the legacy interleaved v0
  /// format, so pre-block blobs keep loading. Either way the body is
  /// validated structurally before anything can iterate it — exact posting
  /// count, strictly increasing doc ids accumulated in 64 bits (wrapped
  /// hostile deltas cannot sneak back into range), nonzero u32 tfs, every
  /// doc id below `max_doc_exclusive` — and the block directory is rebuilt
  /// during that same validation pass, never trusted from the wire.
  void EncodeTo(std::string* out) const;
  static util::StatusOr<PostingList> DecodeFrom(
      const std::string& buf, size_t* pos,
      uint64_t max_doc_exclusive = UINT64_MAX);

 private:
  std::string bytes_;
  std::vector<BlockInfo> blocks_;
  uint32_t count_ = 0;
};

}  // namespace toppriv::index

#endif  // TOPPRIV_INDEX_POSTING_LIST_H_
