#include "core/allocator.hpp"

#include <new>
#include <stdexcept>

#include "support/error.hpp"

namespace lpomp::core {

SharedAllocator::SharedAllocator(mem::AddressSpace& space,
                                 mem::FrameSource* source, PageKind kind,
                                 std::size_t pool_bytes, std::string name)
    : space_(space), kind_(kind) {
  LPOMP_CHECK_MSG(pool_bytes > 0, "shared pool must be non-empty");
  region_ = space_.map_region(pool_bytes, kind, std::move(name), source);
  pool_bytes_ = region_.length;  // rounded up to the page size
  host_.reset(static_cast<std::byte*>(std::calloc(pool_bytes_, 1)));
  if (host_ == nullptr) throw std::bad_alloc();
}

SharedAllocator::~SharedAllocator() { space_.unmap_region(region_.base); }

SharedAllocator::Block SharedAllocator::allocate(std::size_t bytes,
                                                 std::size_t align,
                                                 const std::string& label) {
  LPOMP_CHECK_MSG(bytes > 0, "empty allocation");
  LPOMP_CHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
  const std::size_t offset = (used_ + align - 1) & ~(align - 1);
  if (offset + bytes > pool_bytes_) {
    throw std::runtime_error(
        "SharedAllocator: pool exhausted allocating '" + label + "' (" +
        std::to_string(bytes) + " B; " + std::to_string(pool_bytes_ - used_) +
        " B left)");
  }
  used_ = offset + bytes;
  labels_.emplace_back(label.empty() ? "anonymous" : label, bytes);

  Block block;
  block.host = host_.get() + offset;
  block.sim_base = region_.base + offset;
  block.bytes = bytes;
  block.kind = kind_;
  return block;
}

}  // namespace lpomp::core
