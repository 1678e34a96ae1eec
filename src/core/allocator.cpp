#include "core/allocator.hpp"

#include <sys/mman.h>
#include <unistd.h>

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

  // Map whole host pages plus the guard page, and place the image so that
  // it ends exactly where the guard begins.
  const auto host_page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t image_pages = (pool_bytes_ + host_page - 1) / host_page;
  mapping_bytes_ = (image_pages + 1) * host_page;
  void* mapping = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping != MAP_FAILED &&
      ::mprotect(static_cast<std::byte*>(mapping) + image_pages * host_page,
                 host_page, PROT_NONE) != 0) {
    ::munmap(mapping, mapping_bytes_);
    mapping = MAP_FAILED;
  }
  if (mapping == MAP_FAILED) {
    // The destructor will not run: release the region here.
    space_.unmap_region(region_.base);
    throw std::bad_alloc();
  }
  mapping_ = static_cast<std::byte*>(mapping);
  host_ = mapping_ + image_pages * host_page - pool_bytes_;
}

SharedAllocator::~SharedAllocator() {
  ::munmap(mapping_, mapping_bytes_);
  space_.unmap_region(region_.base);
}

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
  block.host = host_ + offset;
  block.sim_base = region_.base + offset;
  block.bytes = bytes;
  block.kind = kind_;
  return block;
}

}  // namespace lpomp::core
