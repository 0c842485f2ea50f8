#include "table/table_builder.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "table/attribute_extractor.h"
#include "table/block_builder.h"
#include "table/filter_block.h"
#include "table/filter_policy.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"

namespace leveldbpp {

struct TableBuilder::Rep {
  Rep(const Options& opt, WritableFile* f)
      : options(opt),
        file(f),
        offset(0),
        data_block(opt.block_restart_interval),
        index_block(1),
        num_entries(0),
        closed(false),
        filter_block(opt.filter_policy == nullptr
                         ? nullptr
                         : new FilterBlockBuilder(opt.filter_policy)),
        zone_builder(opt.secondary_attributes),
        pending_index_entry(false),
        attr_values(opt.secondary_attributes.size()),
        attr_found(opt.secondary_attributes.size()) {
    if (options.comparator == nullptr) {
      options.comparator = BytewiseComparator();
    }
    const FilterPolicy* sec_policy = opt.secondary_filter_policy != nullptr
                                         ? opt.secondary_filter_policy
                                         : nullptr;
    if (!opt.secondary_attributes.empty() && sec_policy != nullptr) {
      for (size_t i = 0; i < opt.secondary_attributes.size(); i++) {
        sec_filter_blocks.emplace_back(new FilterBlockBuilder(sec_policy));
      }
    }
  }

  Options options;
  WritableFile* file;
  uint64_t offset;
  Status status;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::string last_key;
  int64_t num_entries;
  bool closed;  // Either Finish() or Abandon() has been called.
  std::unique_ptr<FilterBlockBuilder> filter_block;
  // One secondary filter builder per indexed attribute (may be empty if no
  // secondary filter policy is configured; zone maps still get built).
  std::vector<std::unique_ptr<FilterBlockBuilder>> sec_filter_blocks;
  ZoneMapBuilder zone_builder;

  // Invariant: only true when the data block is empty: we postpone the
  // index entry for the just-finished block until the first key of the next
  // block is seen, to compute a shortest separator.
  bool pending_index_entry;
  BlockHandle pending_handle;  // Handle of the block we're adding index for

  std::string compressed_output;
  // Add()'s attribute extraction buffers, reused across records.
  std::vector<std::string> attr_values;
  std::vector<char> attr_found;
};

TableBuilder::TableBuilder(const Options& options, WritableFile* file)
    : rep_(new Rep(options, file)) {}

TableBuilder::~TableBuilder() {
  assert(rep_->closed);  // Catch errors where caller forgot to call Finish()
  delete rep_;
}

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  if (r->num_entries > 0) {
    assert(r->options.comparator->Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    r->options.comparator->FindShortestSeparator(&r->last_key, key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(Slice(r->last_key), Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  if (r->filter_block != nullptr) {
    r->filter_block->AddKey(key);
  }

  // Embedded-index meta: extract each indexed attribute from the value and
  // feed the per-block secondary bloom + zone map.
  if (!r->options.secondary_attributes.empty() &&
      r->options.attribute_extractor != nullptr && !value.empty()) {
    r->options.attribute_extractor->ExtractAll(
        value, r->options.secondary_attributes, r->attr_values,
        r->attr_found);
    for (size_t i = 0; i < r->options.secondary_attributes.size(); i++) {
      if (!r->attr_found[i]) continue;
      const Slice attr_value(r->attr_values[i]);
      if (i < r->sec_filter_blocks.size()) {
        r->sec_filter_blocks[i]->AddKey(attr_value);
      }
      r->zone_builder.Add(i, attr_value);
    }
  }

  r->last_key.assign(key.data(), key.size());
  r->num_entries++;
  r->data_block.Add(key, value);

  const size_t estimated_block_size = r->data_block.CurrentSizeEstimate();
  if (estimated_block_size >= r->options.block_size) {
    Flush();
  }
}

void TableBuilder::Flush() {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  if (r->data_block.empty()) return;
  assert(!r->pending_index_entry);
  WriteBlock(&r->data_block, &r->pending_handle);
  if (ok()) {
    r->pending_index_entry = true;
    r->status = r->file->Flush();
  }
  if (r->filter_block != nullptr) {
    r->filter_block->FinishBlock();
  }
  for (auto& sfb : r->sec_filter_blocks) {
    sfb->FinishBlock();
  }
  if (!r->options.secondary_attributes.empty()) {
    r->zone_builder.FinishBlock();
  }
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  // File format contains a sequence of blocks where each block has:
  //    block_data: uint8[n]
  //    type: uint8
  //    crc: uint32
  assert(ok());
  Rep* r = rep_;
  Slice raw = block->Finish();

  Slice block_contents;
  CompressionType type = r->options.compression;
  switch (type) {
    case kNoCompression:
      block_contents = raw;
      break;

    case kSimpleLZCompression: {
      std::string* compressed = &r->compressed_output;
      compressed->clear();
      simplelz::Compress(raw, compressed);
      if (compressed->size() < raw.size() - (raw.size() / 8u)) {
        block_contents = *compressed;
      } else {
        // Compression gained less than 12.5%; store uncompressed.
        block_contents = raw;
        type = kNoCompression;
      }
      break;
    }
  }
  WriteRawBlock(block_contents, type, handle);
  r->compressed_output.clear();
  block->Reset();
}

void TableBuilder::WriteRawBlock(const Slice& block_contents,
                                 CompressionType type, BlockHandle* handle) {
  Rep* r = rep_;
  handle->set_offset(r->offset);
  handle->set_size(block_contents.size());
  r->status = r->file->Append(block_contents);
  if (r->status.ok()) {
    char trailer[kBlockTrailerSize];
    trailer[0] = type;
    uint32_t crc = crc32c::Value(block_contents.data(), block_contents.size());
    crc = crc32c::Extend(crc, trailer, 1);  // Extend crc to cover block type
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    r->status = r->file->Append(Slice(trailer, kBlockTrailerSize));
    if (r->status.ok()) {
      r->offset += block_contents.size() + kBlockTrailerSize;
    }
  }
}

Status TableBuilder::status() const { return rep_->status; }

Status TableBuilder::Finish() {
  Rep* r = rep_;
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle, metaindex_block_handle, index_block_handle;

  // Meta-block name -> handle entries, added to the metaindex in key order.
  std::vector<std::pair<std::string, BlockHandle>> meta_entries;

  // Write primary filter block.
  if (ok() && r->filter_block != nullptr) {
    WriteRawBlock(r->filter_block->Finish(), kNoCompression,
                  &filter_block_handle);
    meta_entries.emplace_back(
        std::string("filter.") + r->options.filter_policy->Name(),
        filter_block_handle);
  }

  // Write secondary filter blocks (one per indexed attribute).
  if (ok()) {
    for (size_t i = 0; i < r->sec_filter_blocks.size(); i++) {
      BlockHandle h;
      WriteRawBlock(r->sec_filter_blocks[i]->Finish(), kNoCompression, &h);
      if (!ok()) break;
      meta_entries.emplace_back(
          std::string("secfilter.") + r->options.secondary_attributes[i], h);
    }
  }

  // Write zone-map block.
  if (ok() && !r->options.secondary_attributes.empty()) {
    BlockHandle h;
    WriteRawBlock(r->zone_builder.Finish(), kNoCompression, &h);
    meta_entries.emplace_back("zonemaps", h);
  }

  // Write metaindex block.
  if (ok()) {
    BlockBuilder meta_index_block(r->options.block_restart_interval);
    std::sort(meta_entries.begin(), meta_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [name, handle] : meta_entries) {
      std::string handle_encoding;
      handle.EncodeTo(&handle_encoding);
      meta_index_block.Add(Slice(name), Slice(handle_encoding));
    }
    WriteBlock(&meta_index_block, &metaindex_block_handle);
  }

  // Write index block.
  if (ok()) {
    if (r->pending_index_entry) {
      r->options.comparator->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(Slice(r->last_key), Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Write footer.
  if (ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    r->status = r->file->Append(Slice(footer_encoding));
    if (r->status.ok()) {
      r->offset += footer_encoding.size();
    }
  }
  return r->status;
}

void TableBuilder::Abandon() {
  Rep* r = rep_;
  assert(!r->closed);
  r->closed = true;
}

uint64_t TableBuilder::NumEntries() const {
  return static_cast<uint64_t>(rep_->num_entries);
}

uint64_t TableBuilder::FileSize() const { return rep_->offset; }

const ZoneRange& TableBuilder::FileZoneRange(size_t attr_idx) const {
  return rep_->zone_builder.FileRange(attr_idx);
}

}  // namespace leveldbpp
