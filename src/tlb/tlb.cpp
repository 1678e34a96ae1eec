#include "tlb/tlb.hpp"

#include <bit>

namespace lpomp::tlb {

Tlb::Tlb(Config config) : config_(std::move(config)) {
  auto init_bank = [](Bank& b, const TlbGeometry& geom) {
    b.geom = geom;
    if (geom.present()) {
      LPOMP_CHECK_MSG(geom.ways > 0 && geom.entries % geom.ways == 0,
                      "TLB entries must divide evenly into ways");
      b.entries.assign(geom.entries, Entry{});
      b.sets = geom.sets();
      b.pow2_sets = std::has_single_bit(b.sets);
      b.set_mask = b.pow2_sets ? b.sets - 1 : 0;
    }
  };
  init_bank(bank4k_, config_.small4k);
  init_bank(bank2m_, config_.large2m);
  init_bank(bank1g_, config_.huge1g);
}

bool Tlb::lookup_assoc(Bank& b, vpn_t vpn) {
  if (!b.geom.present()) return false;

  // Probe hint: a valid entry holding vpn can only live in vpn's set, and a
  // set never holds duplicates, so a verified hint is the hit itself.
  const std::size_t slot =
      static_cast<std::size_t>(vpn) & (Bank::kProbeSlots - 1);
  {
    Entry& h = b.entries[b.probe[slot]];
    if (h.valid && h.vpn == vpn) {
      h.last_use = ++clock_;
      b.mru_vpn = vpn;
      b.mru_index = static_cast<std::size_t>(b.probe[slot]);
      b.mru_valid = true;
      return true;
    }
  }

  const unsigned set = static_cast<unsigned>(
      b.pow2_sets ? (vpn & b.set_mask) : (vpn % b.sets));
  const std::size_t base_index = static_cast<std::size_t>(set) * b.geom.ways;
  Entry* base = &b.entries[base_index];
  for (unsigned w = 0; w < b.geom.ways; ++w) {
    Entry& e = base[w];
    if (e.valid && e.vpn == vpn) {
      e.last_use = ++clock_;
      b.mru_vpn = vpn;
      b.mru_index = base_index + w;
      b.mru_valid = true;
      b.probe[slot] = static_cast<std::uint32_t>(base_index + w);
      return true;
    }
  }
  return false;
}

void Tlb::insert(vpn_t vpn, PageKind kind) {
  Bank& b = bank(kind);
  if (!b.geom.present()) return;
  insert_in(b, vpn);
}

void Tlb::insert_in(Bank& b, vpn_t vpn) {
  const unsigned set = static_cast<unsigned>(
      b.pow2_sets ? (vpn & b.set_mask) : (vpn % b.sets));
  const std::size_t base_index = static_cast<std::size_t>(set) * b.geom.ways;
  Entry* base = &b.entries[base_index];

  Entry* victim = &base[0];
  for (unsigned w = 0; w < b.geom.ways; ++w) {
    Entry& e = base[w];
    if (e.valid && e.vpn == vpn) {
      // Already present (races between lookup and insert can't happen in the
      // single-threaded simulator, but refills after an L2 hit land here).
      e.last_use = ++clock_;
      return;
    }
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.last_use < victim->last_use) victim = &e;
  }
  victim->valid = true;
  victim->vpn = vpn;
  victim->last_use = ++clock_;
  b.mru_vpn = vpn;
  b.mru_index = base_index + static_cast<std::size_t>(victim - base);
  b.mru_valid = true;
  b.probe[static_cast<std::size_t>(vpn) & (Bank::kProbeSlots - 1)] =
      static_cast<std::uint32_t>(b.mru_index);
}

unsigned Tlb::occupancy(PageKind kind) const {
  const Bank& b = bank(kind);
  unsigned n = 0;
  for (const Entry& e : b.entries) n += e.valid ? 1 : 0;
  return n;
}

void Tlb::flush() {
  for (Bank* b : {&bank4k_, &bank2m_, &bank1g_}) {
    for (Entry& e : b->entries) e.valid = false;
    b->mru_valid = false;
  }
}

}  // namespace lpomp::tlb
