#include "index/inverted_index.h"

#include <algorithm>
#include <map>

#include "util/check.h"
#include "util/io.h"

namespace toppriv::index {

InvertedIndex InvertedIndex::Build(const corpus::Corpus& corpus) {
  return BuildRange(corpus, 0,
                    static_cast<corpus::DocId>(corpus.num_documents()));
}

InvertedIndex InvertedIndex::BuildRange(const corpus::Corpus& corpus,
                                        corpus::DocId begin,
                                        corpus::DocId end) {
  TOPPRIV_CHECK_LE(begin, end);
  TOPPRIV_CHECK_LE(end, corpus.num_documents());
  const size_t num_terms = corpus.vocabulary_size();
  std::vector<PostingList::Builder> builders(num_terms);

  InvertedIndex index;
  index.doc_lengths_.reserve(end - begin);

  // Documents arrive in ascending id order, so per-term Appends are
  // naturally sorted.
  std::map<text::TermId, uint32_t> counts;  // reused across documents
  for (corpus::DocId d = begin; d < end; ++d) {
    const corpus::Document& doc = corpus.documents()[d];
    counts.clear();
    for (text::TermId t : doc.tokens) ++counts[t];
    for (const auto& [term, tf] : counts) {
      TOPPRIV_CHECK_LT(term, num_terms);
      builders[term].Append(doc.id - begin, tf);
    }
    index.doc_lengths_.push_back(static_cast<uint32_t>(doc.tokens.size()));
  }

  index.lists_.reserve(num_terms);
  for (auto& b : builders) index.lists_.push_back(b.Build());
  index.DeriveLengthStats();
  return index;
}

InvertedIndex InvertedIndex::FromParts(std::vector<PostingList> lists,
                                       std::vector<uint32_t> doc_lengths) {
  InvertedIndex index;
  index.lists_ = std::move(lists);
  index.doc_lengths_ = std::move(doc_lengths);
  index.DeriveLengthStats();
  return index;
}

const PostingList& InvertedIndex::Postings(text::TermId term) const {
  if (term >= lists_.size()) return empty_list_;
  return lists_[term];
}

uint32_t InvertedIndex::DocFreq(text::TermId term) const {
  return Postings(term).size();
}

void InvertedIndex::DeriveLengthStats() {
  total_tokens_ = 0;
  max_doc_length_ = 0;
  for (uint32_t len : doc_lengths_) {
    total_tokens_ += len;
    max_doc_length_ = std::max(max_doc_length_, len);
  }
  avg_doc_length_ = doc_lengths_.empty()
                        ? 0.0
                        : static_cast<double>(total_tokens_) /
                              static_cast<double>(doc_lengths_.size());
}

IndexStats InvertedIndex::ComputeStats() const {
  IndexStats stats;
  stats.num_terms = lists_.size();
  stats.num_documents = doc_lengths_.size();
  for (const PostingList& list : lists_) {
    stats.total_postings += list.size();
    stats.max_list_length = std::max(stats.max_list_length, list.size());
    stats.encoded_bytes += list.ByteSize();
  }
  if (!lists_.empty()) {
    stats.avg_list_length = static_cast<double>(stats.total_postings) /
                            static_cast<double>(lists_.size());
  }
  // PIR requires equal-size records: every list padded to the maximum
  // length, 8 bytes per <impact, doc> pair (paper §II).
  stats.pir_padded_bytes = static_cast<uint64_t>(stats.num_terms) *
                           static_cast<uint64_t>(stats.max_list_length) * 8ull;
  return stats;
}

std::string InvertedIndex::Serialize() const {
  util::BinaryWriter w;
  w.WriteVarint(doc_lengths_.size());
  for (uint32_t len : doc_lengths_) w.WriteVarint(len);
  w.WriteVarint(lists_.size());
  std::string body;
  for (const PostingList& list : lists_) list.EncodeTo(&body);
  w.WriteString(body);
  return w.data();
}

util::StatusOr<InvertedIndex> InvertedIndex::Deserialize(
    const std::string& bytes) {
  util::BinaryReader r(bytes);
  uint64_t num_docs = 0;
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&num_docs));
  // Every document length costs at least one varint byte, so a count larger
  // than the remaining payload is hostile — without this bound a few-byte
  // blob could demand a multi-gigabyte resize before any payload is read.
  if (num_docs > r.remaining()) {
    return util::Status::DataLoss("document count exceeds payload");
  }
  InvertedIndex index;
  index.doc_lengths_.resize(num_docs);
  for (uint64_t i = 0; i < num_docs; ++i) {
    uint64_t len = 0;
    TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&len));
    if (len > UINT32_MAX) {
      return util::Status::DataLoss("document length overflows u32");
    }
    index.doc_lengths_[i] = static_cast<uint32_t>(len);
  }
  uint64_t num_terms = 0;
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&num_terms));
  std::string body;
  TOPPRIV_RETURN_IF_ERROR(r.ReadString(&body));
  // Each posting list costs at least one byte of `body` (an empty list is a
  // single zero varint).
  if (num_terms > body.size()) {
    return util::Status::DataLoss("term count exceeds payload");
  }
  size_t pos = 0;
  index.lists_.reserve(num_terms);
  for (uint64_t i = 0; i < num_terms; ++i) {
    // Bounding doc ids by num_docs matters as much as the structural
    // checks: consumers (the contiguous score accumulator, the doc-length
    // lookups) index per-document arrays with posting doc ids.
    auto list = PostingList::DecodeFrom(body, &pos, num_docs);
    if (!list.ok()) return list.status();
    index.lists_.push_back(std::move(list).value());
  }
  index.DeriveLengthStats();
  return index;
}

}  // namespace toppriv::index
