// Sweep service: wire-format round trips, shared-memory ring lifecycle,
// and the full daemon loop in-process — cold submission populates the
// persistent store, a warm submission answers from cache, and a *restarted*
// service on the same store directory serves the identical grid from disk.
// The deterministic response section is byte-compared across all three, the
// comparison the CI smoke job repeats over real processes.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "exec/json.hpp"
#include "paging/policy.hpp"
#include "serve/client.hpp"
#include "serve/ring.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/processor_spec.hpp"

using namespace lpomp;

namespace {

struct TempDir {
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "lpomp-serve-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// Unique-per-process segment names so parallel ctest invocations never
/// collide on /dev/shm.
std::string shm_name(const char* tag) {
  return std::string("/lpomp-test-") + tag + "-" + std::to_string(::getpid());
}

/// A small request (4 grid points) the in-process tests can run in well
/// under a second.
serve::SweepRequest small_request() {
  serve::SweepRequest request;
  request.kernels = {npb::Kernel::CG};
  request.klass = npb::Klass::S;
  request.platforms = {"opteron"};
  request.threads = {1, 2};
  request.page_kinds = {PageKind::small4k, PageKind::large2m};
  request.base_seed = 0x5eed;
  return request;
}

/// Runs `service.serve()` on a thread for the scope of one test block.
struct ServerThread {
  explicit ServerThread(serve::SweepService& service)
      : thread([&service, this] { service.serve(stop); }) {}
  ~ServerThread() {
    stop.store(true);
    thread.join();
  }
  std::atomic<bool> stop{false};
  std::thread thread;
};

/// Member of a parsed "lpomp-serve-v1" response document.
const exec::JsonValue& response_member(const exec::JsonValue& doc,
                                       const std::string& name) {
  EXPECT_EQ(doc.at("schema").as_string(), "lpomp-serve-v1");
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  return doc.at(name);
}

std::uint64_t summary_counter(const exec::JsonValue& response,
                              const std::string& field) {
  return response_member(response, "result")
      .at("summary")
      .at(field)
      .as_uint64();
}

}  // namespace

// encode ∘ decode is the identity on a request with every field off its
// default, and re-encoding is byte-stable (the canonical-order property the
// store and logs rely on).
TEST(ServeWire, RequestRoundTrip) {
  serve::SweepRequest request;
  request.kernels = {npb::Kernel::MG, npb::Kernel::CG};
  request.klass = npb::Klass::W;
  request.platforms = {"xeon"};
  request.threads = {3, 5};
  request.page_kinds = {PageKind::large2m};
  request.code_page_kind = PageKind::large2m;
  request.base_seed = 0xdeadbeef;
  request.per_task_seeds = true;
  request.strategy = exec::Strategy::Live;

  const std::string text = serve::encode_request(request);
  const serve::SweepRequest decoded = serve::decode_request(text);
  EXPECT_EQ(serve::encode_request(decoded), text);
  EXPECT_EQ(decoded.kernels, request.kernels);
  EXPECT_EQ(decoded.klass, request.klass);
  EXPECT_EQ(decoded.platforms, request.platforms);
  EXPECT_EQ(decoded.threads, request.threads);
  EXPECT_EQ(decoded.page_kinds, request.page_kinds);
  EXPECT_EQ(decoded.code_page_kind, request.code_page_kind);
  EXPECT_EQ(decoded.base_seed, request.base_seed);
  EXPECT_EQ(decoded.per_task_seeds, request.per_task_seeds);
  EXPECT_EQ(decoded.strategy, request.strategy);

  // The resolved spec carries the daemon-side platform table.
  const exec::SweepSpec spec = decoded.to_spec();
  ASSERT_EQ(spec.platforms.size(), 1u);
  EXPECT_EQ(spec.platforms[0].name, sim::ProcessorSpec::xeon_ht().name);
}

// name -> decode -> name is the identity for every entry of every axis
// table the wire carries, and a name outside a table is a WireError that
// lists the table.
TEST(ServeWire, AxisNamesRoundTrip) {
  auto round_trip = [](const serve::SweepRequest& request) {
    const std::string text = serve::encode_request(request);
    const serve::SweepRequest decoded = serve::decode_request(text);
    EXPECT_EQ(serve::encode_request(decoded), text);
    return decoded;
  };
  for (const npb::Kernel k : npb::all_kernels()) {
    serve::SweepRequest request = small_request();
    request.kernels = {k};
    EXPECT_EQ(round_trip(request).kernels, request.kernels);
  }
  for (const npb::Klass k : npb::all_klasses()) {
    serve::SweepRequest request = small_request();
    request.klass = k;
    EXPECT_EQ(round_trip(request).klass, k);
  }
  for (const PageKind k : kLayoutPageKinds.all()) {
    serve::SweepRequest request = small_request();
    request.page_kinds = {k};
    request.code_page_kind = k;
    const serve::SweepRequest decoded = round_trip(request);
    EXPECT_EQ(decoded.page_kinds, request.page_kinds);
    EXPECT_EQ(decoded.code_page_kind, k);
  }
  for (const std::string key : sim::kPlatformKeys.names) {
    serve::SweepRequest request = small_request();
    request.platforms = {key};
    const serve::SweepRequest decoded = round_trip(request);
    EXPECT_EQ(decoded.platforms, request.platforms);
    EXPECT_EQ(decoded.to_spec().platforms.at(0).name,
              sim::ProcessorSpec::from_key(key)->name);
  }
  for (const paging::Policy p : paging::kPolicies.all()) {
    serve::SweepRequest request = small_request();
    request.paging = {paging::policy_name(p)};
    const serve::SweepRequest decoded = round_trip(request);
    EXPECT_EQ(decoded.paging, request.paging);
    EXPECT_EQ(decoded.to_spec().paging_policies.at(0).policy, p);
  }

  serve::SweepRequest request = small_request();
  request.paging = {"native", "thp"};
  const std::string good = serve::encode_request(request);
  for (const auto& [field, bad] :
       {std::pair{"kernels=CG", "kernels=cg"},
        std::pair{"klass=S", "klass=Q"},
        std::pair{"pages=4KB", "pages=1GB"},
        std::pair{"code_pages=4KB", "code_pages=1GB"},
        std::pair{"platforms=opteron", "platforms=foo"},
        std::pair{"paging=native", "paging=2mb"}}) {
    std::string text = good;
    const std::size_t pos = text.find(field);
    ASSERT_NE(pos, std::string::npos) << field;
    text.replace(pos, std::string(field).size(), bad);
    try {
      serve::decode_request(text);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const serve::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("(valid: "), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeWire, RejectsMalformedRequests) {
  EXPECT_THROW(serve::decode_request("not a request"), serve::WireError);
  EXPECT_THROW(serve::decode_request(""), serve::WireError);

  serve::SweepRequest bad_platform = small_request();
  bad_platform.platforms = {"sparc"};
  const std::string text = serve::encode_request(bad_platform);
  // Unknown platforms are rejected at decode time (fail in the daemon's
  // doorway, not halfway into a sweep).
  EXPECT_THROW(serve::decode_request(text), serve::WireError);

  // A tampered strategy value.
  const std::string good = serve::encode_request(small_request());
  std::string tampered = good;
  const std::size_t pos = tampered.find("strategy=");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, std::string::npos, "strategy=warp");
  EXPECT_THROW(serve::decode_request(tampered), serve::WireError);

  // A thread count that does not fit `unsigned` is not truncated.
  std::string wide = good;
  const std::size_t threads = wide.find("threads=1,2");
  ASSERT_NE(threads, std::string::npos);
  wide.replace(threads, 11, "threads=4294967297");
  EXPECT_THROW(serve::decode_request(wide), serve::WireError);
}

// Every truncation and every single-bit flip of a valid request either
// decodes or throws WireError, so a damaged request becomes an error
// response, never a crash or a stray exception type.
TEST(ServeWireFuzz, TruncationsAndBitFlipsDecodeOrThrowWireError) {
  serve::SweepRequest request = small_request();
  request.kernels = {npb::Kernel::MG, npb::Kernel::CG};
  request.platforms = {"opteron", "xeon"};
  request.threads = {1, 2, 4};
  request.paging = {"native", "thp"};
  request.per_task_seeds = true;
  const std::string text = serve::encode_request(request);
  ASSERT_EQ(serve::encode_request(serve::decode_request(text)), text);

  std::size_t decoded = 0;
  auto probe = [&decoded](const std::string& bytes) {
    try {
      serve::decode_request(bytes);
      ++decoded;
    } catch (const serve::WireError&) {
    }
  };
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    probe(text.substr(0, cut));
  }
  for (std::size_t off = 0; off < text.size(); ++off) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string bad = text;
      bad[off] = static_cast<char>(static_cast<unsigned char>(bad[off]) ^
                                   (1u << bit));
      probe(bad);
    }
  }
  // Cutting whole trailing fields leaves a valid request.
  EXPECT_GT(decoded, 0u);
}

// The removed replay tiers are not silently mapped onto live: a request
// naming one is rejected in the doorway, and the error names the valid
// spellings.
TEST(ServeWire, RejectsRemovedStrategies) {
  const std::string good = serve::encode_request(small_request());
  const std::size_t pos = good.find("strategy=");
  ASSERT_NE(pos, std::string::npos);
  for (const char* removed : {"analytic", "multilane", "recorded"}) {
    std::string text = good;
    text.replace(pos, std::string::npos, std::string("strategy=") + removed);
    try {
      serve::decode_request(text);
      ADD_FAILURE() << removed << " was accepted";
    } catch (const serve::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("live, auto"), std::string::npos)
          << e.what();
    }
  }
}

// A zero thread count is rejected in the doorway: the sweep would skip its
// points and still report success.
TEST(ServeWire, RejectsZeroThreadCount) {
  const std::string good = serve::encode_request(small_request());
  const std::size_t pos = good.find("threads=1,2");
  ASSERT_NE(pos, std::string::npos);
  for (const char* threads : {"threads=0", "threads=1,0", "threads=0,2"}) {
    std::string text = good;
    text.replace(pos, 11, threads);
    try {
      serve::decode_request(text);
      ADD_FAILURE() << threads << " was accepted";
    } catch (const serve::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("bad threads '0'"),
                std::string::npos)
          << e.what();
    }
  }
  std::string one = good;
  one.replace(pos, 11, "threads=1");
  EXPECT_EQ(serve::decode_request(one).threads, std::vector<unsigned>{1});
}

TEST(ServeWire, ErrorResponseDocument) {
  const exec::JsonValue doc =
      exec::json_parse(serve::encode_error_response("boom \"quoted\""));
  EXPECT_EQ(doc.at("schema").as_string(), "lpomp-serve-v1");
  EXPECT_EQ(doc.at("status").as_string(), "error");
  EXPECT_EQ(doc.at("message").as_string(), "boom \"quoted\"");
}

// Ring lifecycle: create → open sees the same geometry; opening a segment
// that does not exist (no daemon) fails with a reasoned error; the owner's
// destructor unlinks the segment.
TEST(ServeRing, CreateOpenUnlink) {
  const std::string name = shm_name("ring");
  {
    serve::ShmRing ring = serve::ShmRing::create(name, 4, 64 * 1024);
    EXPECT_EQ(ring.slots(), 4u);
    EXPECT_EQ(ring.slot_bytes(), 64u * 1024u);

    serve::ShmRing opened = serve::ShmRing::open(name);
    EXPECT_EQ(opened.slots(), 4u);
    EXPECT_EQ(opened.slot_bytes(), 64u * 1024u);
  }
  EXPECT_THROW(serve::ShmRing::open(name), serve::RingError);
  EXPECT_THROW(serve::ShmRing::open(shm_name("never-created")),
               serve::RingError);
}

// The tentpole acceptance path, in-process: cold → store populated; warm →
// LRU; restart (new service, same store dir) → disk store; all three
// deterministic sections byte-identical; warm/restart never re-simulate.
TEST(ServeService, ColdWarmRestartFromStore) {
  const std::string name = shm_name("svc");
  TempDir store_dir;

  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.scheduler.workers = 2;
  cfg.scheduler.store_dir = store_dir.path;

  const serve::SweepRequest request = small_request();
  std::string cold, warm, restarted;

  {
    serve::SweepService service(cfg);
    ServerThread server(service);
    serve::SweepClient client(name);
    cold = client.submit(request);
    warm = client.submit(request);
  }
  {
    serve::SweepService service(cfg);
    ServerThread server(service);
    serve::SweepClient client(name);
    restarted = client.submit(request);
  }

  const exec::JsonValue cold_doc = exec::json_parse(cold);
  const exec::JsonValue warm_doc = exec::json_parse(warm);
  const exec::JsonValue restart_doc = exec::json_parse(restarted);

  // Cold: everything simulated, everything persisted.
  EXPECT_EQ(summary_counter(cold_doc, "completed"), 4u);
  EXPECT_EQ(summary_counter(cold_doc, "cache_hits"), 0u);
  EXPECT_EQ(summary_counter(cold_doc, "store_hits"), 0u);
  EXPECT_EQ(summary_counter(cold_doc, "store_insertions"), 4u);

  // Warm (same daemon): pure LRU, no disk reads.
  EXPECT_EQ(summary_counter(warm_doc, "cache_hits"), 4u);
  EXPECT_EQ(summary_counter(warm_doc, "store_hits"), 0u);

  // Restarted daemon, same store dir: the whole grid comes from disk.
  EXPECT_EQ(summary_counter(restart_doc, "store_hits"), 4u);
  EXPECT_EQ(summary_counter(restart_doc, "cache_hits"), 0u);
  EXPECT_EQ(summary_counter(restart_doc, "store_insertions"), 0u);

  // The result the client actually uses is byte-identical in all cases.
  auto deterministic = [](const exec::JsonValue& doc) {
    const exec::JsonValue* d = doc.find("deterministic");
    EXPECT_NE(d, nullptr);
    return d;
  };
  // Raw-text comparison of the member is what the CI smoke job does with
  // python; here compare through the parser plus the full member text.
  const std::size_t cold_det = cold.find("\"deterministic\"");
  const std::size_t warm_det = warm.find("\"deterministic\"");
  const std::size_t restart_det = restarted.find("\"deterministic\"");
  ASSERT_NE(cold_det, std::string::npos);
  EXPECT_EQ(cold.substr(cold_det), warm.substr(warm_det));
  EXPECT_EQ(cold.substr(cold_det), restarted.substr(restart_det));
  (void)deterministic(cold_doc);
}

// Two clients with interleaved submissions on one daemon: both get correct
// answers (the second request is served from cache), and the ring's
// telemetry counts both.
TEST(ServeService, TwoClientsShareOneDaemon) {
  const std::string name = shm_name("two");

  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.scheduler.workers = 2;

  serve::SweepService service(cfg);
  ServerThread server(service);

  const serve::SweepRequest request = small_request();
  std::string a, b;
  std::thread ta([&] {
    serve::SweepClient client(name);
    a = client.submit(request);
  });
  std::thread tb([&] {
    serve::SweepClient client(name);
    b = client.submit(request);
  });
  ta.join();
  tb.join();

  const exec::JsonValue doc_a = exec::json_parse(a);
  const exec::JsonValue doc_b = exec::json_parse(b);
  EXPECT_EQ(summary_counter(doc_a, "completed"), 4u);
  EXPECT_EQ(summary_counter(doc_b, "completed"), 4u);
  const std::size_t det_a = a.find("\"deterministic\"");
  const std::size_t det_b = b.find("\"deterministic\"");
  EXPECT_EQ(a.substr(det_a), b.substr(det_b));
}

// A daemon-side decode failure comes back as a structured error response,
// which the client surfaces as ClientError("daemon error: ...") — the ring
// stays healthy for the next request.
TEST(ServeService, DaemonErrorResponse) {
  const std::string name = shm_name("err");

  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.scheduler.workers = 2;

  serve::SweepService service(cfg);
  ServerThread server(service);
  serve::SweepClient client(name);

  serve::SweepRequest bad = small_request();
  bad.platforms = {"sparc"};
  try {
    client.submit(bad);
    FAIL() << "expected ClientError";
  } catch (const serve::ClientError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("daemon error:", 0), 0u)
        << e.what();
  }

  // The ring is not poisoned: a good request still round-trips.
  const std::string ok = client.submit(small_request());
  EXPECT_EQ(summary_counter(exec::json_parse(ok), "completed"), 4u);
}

// A slot header that claims more request bytes than the slot holds (a
// buggy or hostile client) is answered with an error response, never read
// past the payload region; the next slot is served normally.
TEST(ServeService, OversizedRequestHeaderIsRejected) {
  const std::string name = shm_name("oversize");
  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.slots = 2;
  cfg.slot_bytes = 64 * 1024;
  cfg.scheduler.workers = 1;
  serve::SweepService service(cfg);

  serve::ShmRing ring = serve::ShmRing::open(name);
  for (const std::uint32_t claimed :
       {std::uint32_t{64 * 1024 + 1}, ~std::uint32_t{0}}) {
    serve::SlotHeader* slot = ring.slot(0);
    ASSERT_EQ(slot->state.load(), serve::kSlotFree);
    slot->request_bytes = claimed;
    slot->state.store(serve::kSlotRequest, std::memory_order_release);
    EXPECT_EQ(service.poll_once(), 1u);

    ASSERT_EQ(slot->state.load(), serve::kSlotResponse);
    EXPECT_EQ(slot->status, 1u);
    const exec::JsonValue doc = exec::json_parse(
        std::string(ring.payload(0), slot->response_bytes));
    EXPECT_EQ(doc.at("status").as_string(), "error");
    EXPECT_NE(doc.at("message").as_string().find("slot holds"),
              std::string::npos);
    slot->state.store(serve::kSlotFree, std::memory_order_release);
  }

  // The ring is not poisoned: a well-formed stats probe still answers.
  const std::string probe = serve::encode_stats_request();
  serve::SlotHeader* slot = ring.slot(1);
  std::memcpy(ring.payload(1), probe.data(), probe.size());
  slot->request_bytes = static_cast<std::uint32_t>(probe.size());
  slot->state.store(serve::kSlotRequest, std::memory_order_release);
  EXPECT_EQ(service.poll_once(), 1u);
  EXPECT_EQ(slot->status, 0u);
}

// The ring geometry lives in shared memory, where any client can write it.
// A client that rewrites the slot count and slot size must not move the
// daemon's slot or payload addresses: the daemon keeps the geometry it
// created the ring with, keeps serving, and reports that geometry.
TEST(ServeService, RewrittenRingGeometryIsIgnored) {
  const std::string name = shm_name("geometry");
  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.slots = 2;
  cfg.slot_bytes = 64 * 1024;
  cfg.scheduler.workers = 1;
  serve::SweepService service(cfg);
  const serve::ShmRing& daemon_ring = service.ring();
  char* const payload1 = daemon_ring.payload(1);

  serve::ShmRing ring = serve::ShmRing::open(name);
  ring.header()->slots = 1u << 20;
  ring.header()->slot_bytes = std::uint64_t{1} << 40;

  EXPECT_EQ(daemon_ring.slots(), 2u);
  EXPECT_EQ(daemon_ring.slot_bytes(), 64u * 1024u);
  EXPECT_EQ(daemon_ring.payload(1), payload1);
  EXPECT_EQ(ring.slots(), 2u);
  EXPECT_EQ(ring.slot_bytes(), 64u * 1024u);

  // The daemon scans its two slots only and answers a stats probe.
  const std::string probe = serve::encode_stats_request();
  serve::SlotHeader* slot = ring.slot(1);
  std::memcpy(ring.payload(1), probe.data(), probe.size());
  slot->request_bytes = static_cast<std::uint32_t>(probe.size());
  slot->state.store(serve::kSlotRequest, std::memory_order_release);
  EXPECT_EQ(service.poll_once(), 1u);
  ASSERT_EQ(slot->state.load(), serve::kSlotResponse);
  EXPECT_EQ(slot->status, 0u);
  const exec::JsonValue doc = exec::json_parse(
      std::string(ring.payload(1), slot->response_bytes));
  EXPECT_EQ(doc.at("stats").at("slots").as_uint64(), 2u);
  EXPECT_EQ(doc.at("stats").at("slot_bytes").as_uint64(), 64u * 1024u);

  // A later client reads the rewritten header and is refused: the claimed
  // geometry does not fit the segment.
  EXPECT_THROW(serve::ShmRing::open(name), serve::RingError);
}

// With no daemon on the segment, the client constructor fails with
// RingError — fast, reasoned, no hang.
TEST(ServeService, NoDaemonIsCleanFailure) {
  EXPECT_THROW(serve::SweepClient client(shm_name("absent")),
               serve::RingError);
}

// --- deadlines -----------------------------------------------------------
//
// A client whose deadline expires gives its slot back: it withdraws a
// request the daemon has not taken, and the daemon frees a slot whose
// client abandoned it mid-request once it has answered.

bool all_slots_free(const serve::ShmRing& ring) {
  for (std::uint32_t i = 0; i < ring.slots(); ++i) {
    if (ring.slot(i)->state.load() != serve::kSlotFree) return false;
  }
  return true;
}

/// A one-point request; `seed` keeps it out of the daemon's result cache.
serve::SweepRequest one_point_request(std::uint64_t seed) {
  serve::SweepRequest request = small_request();
  request.threads = {1};
  request.page_kinds = {PageKind::small4k};
  request.base_seed = seed;
  return request;
}

/// Submits `request` with a 200 ms deadline while the daemon takes it in
/// one poll_once and runs it past the deadline (the caller's task runner
/// sleeps): the client must time out while its request is Busy.
void time_out_while_busy(serve::SweepService& service, const std::string& name,
                         const serve::SweepRequest& request) {
  std::string error;
  std::thread client_thread([&] {
    serve::SweepClient client(name);
    try {
      client.submit(request, std::chrono::milliseconds(200));
    } catch (const serve::ClientError& e) {
      error = e.what();
    }
  });
  const serve::ShmRing& ring = service.ring();
  auto pending = [&ring] {
    for (std::uint32_t i = 0; i < ring.slots(); ++i) {
      if (ring.slot(i)->state.load() == serve::kSlotRequest) return true;
    }
    return false;
  };
  while (!pending()) std::this_thread::yield();
  EXPECT_EQ(service.poll_once(), 1u);
  client_thread.join();
  EXPECT_EQ(error, "deadline expired awaiting response");
}

/// Task runner that sleeps 600 ms before each task while `slow` is set.
exec::Scheduler::TaskRunner sleepy_runner(const std::atomic<bool>& slow,
                                          std::atomic<int>& calls) {
  return [&slow, &calls](const exec::RunTask& task) {
    ++calls;
    if (slow.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
    return exec::Scheduler::execute_task(task);
  };
}

// Nobody polls: the client withdraws its request at the deadline, so the
// slot is Free and the daemon never serves it.
TEST(ServeService, TimedOutRequestWithoutPollIsWithdrawn) {
  const std::string name = shm_name("withdraw");
  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.slots = 2;
  cfg.scheduler.workers = 1;
  serve::SweepService service(cfg);

  serve::SweepClient client(name);
  try {
    client.submit(one_point_request(1), std::chrono::milliseconds(20));
    ADD_FAILURE() << "expected a deadline ClientError";
  } catch (const serve::ClientError& e) {
    EXPECT_STREQ(e.what(), "deadline expired awaiting response");
  }
  EXPECT_TRUE(all_slots_free(service.ring()));
  EXPECT_EQ(service.poll_once(), 0u);
}

// The daemon takes the request and runs past the client's deadline: the
// client abandons the slot, and the daemon frees it instead of publishing
// a response nobody reads.
TEST(ServeService, RequestAbandonedWhileBusyIsFreedByTheDaemon) {
  const std::string name = shm_name("abandon");
  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.slots = 2;
  cfg.scheduler.workers = 1;
  std::atomic<bool> slow{true};
  std::atomic<int> calls{0};
  serve::SweepService service(cfg);
  service.scheduler().set_task_runner(sleepy_runner(slow, calls));

  time_out_while_busy(service, name, one_point_request(1));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(all_slots_free(service.ring()));
}

// As many timeouts as the ring has slots, then a normal submission: it
// still finds a free slot and is served.
TEST(ServeService, TimeoutsNeverExhaustTheRing) {
  const std::string name = shm_name("exhaust");
  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.slots = 2;
  cfg.scheduler.workers = 1;
  std::atomic<bool> slow{true};
  std::atomic<int> calls{0};
  serve::SweepService service(cfg);
  service.scheduler().set_task_runner(sleepy_runner(slow, calls));

  for (std::uint32_t i = 0; i < cfg.slots; ++i) {
    time_out_while_busy(service, name, one_point_request(0x100 + i));
  }
  slow.store(false);
  ServerThread server(service);
  serve::SweepClient client(name);
  const std::string ok =
      client.submit(small_request(), std::chrono::milliseconds(10000));
  EXPECT_EQ(summary_counter(exec::json_parse(ok), "completed"), 4u);
}

// The stats request is a distinct wire marker, never confusable with a
// sweep request, and its response wraps the daemon's stats document.
TEST(ServeWire, StatsRequestMarker) {
  EXPECT_TRUE(serve::is_stats_request(serve::encode_stats_request()));
  EXPECT_FALSE(
      serve::is_stats_request(serve::encode_request(small_request())));
  const exec::JsonValue doc =
      exec::json_parse(serve::encode_stats_response("{\"x\":1}"));
  EXPECT_EQ(doc.at("schema").as_string(), "lpomp-serve-v1");
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_EQ(doc.at("stats").at("x").as_uint64(), 1u);
}

// Stats round trip against a live daemon: after one sweep the telemetry a
// client reads over the ring reports that request and a nonzero admission
// peak — what `sweep_client --stats` prints.
TEST(ServeService, StatsRoundTrip) {
  const std::string name = shm_name("stats");

  serve::SweepService::Config cfg;
  cfg.shm_name = name;
  cfg.scheduler.workers = 2;

  serve::SweepService service(cfg);
  ServerThread server(service);
  serve::SweepClient client(name);

  client.submit(small_request());
  const exec::JsonValue doc = exec::json_parse(client.stats());
  EXPECT_EQ(doc.at("schema").as_string(), "lpomp-serve-v1");
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  const exec::JsonValue& stats = doc.at("stats");
  EXPECT_EQ(stats.at("schema").as_string(), "lpomp-serve-stats-v1");
  EXPECT_EQ(stats.at("shm_name").as_string(), name);
  EXPECT_GE(stats.at("requests").as_uint64(), 1u);
  EXPECT_GE(stats.at("responses").as_uint64(), 1u);
  EXPECT_GE(stats.at("queue_depth_peak").as_uint64(), 1u);
  EXPECT_GT(stats.at("slots").as_uint64(), 0u);
}

// Two daemons in separate forked processes, each with its own ring, sharing
// one DiskResultStore directory. Daemon A computes the grid cold; daemon B
// — forked before A wrote anything — answers the same request purely from
// the store A populated, proving the store is the cross-process source of
// truth, not per-process state. Children _exit so gtest state is untouched.
TEST(ServeService, TwoForkedDaemonsShareOneStore) {
  TempDir store_dir;
  const std::string names[2] = {shm_name("forkA"), shm_name("forkB")};
  const std::filesystem::path done_flag[2] = {
      std::filesystem::path(store_dir.path) / "done-A",
      std::filesystem::path(store_dir.path) / "done-B"};

  pid_t pids[2];
  for (int i = 0; i < 2; ++i) {
    pids[i] = ::fork();
    ASSERT_GE(pids[i], 0);
    if (pids[i] == 0) {
      // Child: serve the ring until the parent drops the flag file. The
      // service is destroyed before _exit so its ring segment is unlinked.
      int code = 0;
      try {
        serve::SweepService::Config cfg;
        cfg.shm_name = names[i];
        cfg.scheduler.workers = 2;
        cfg.scheduler.store_dir = store_dir.path;
        serve::SweepService service(cfg);
        while (!std::filesystem::exists(done_flag[i])) {
          if (service.poll_once() == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      } catch (...) {
        code = 2;
      }
      ::_exit(code);
    }
  }

  // The ring appears when the child daemon finishes constructing; retry
  // briefly instead of racing it.
  auto connect = [](const std::string& name) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      try {
        return serve::SweepClient(name);
      } catch (const serve::RingError&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  };

  const serve::SweepRequest request = small_request();
  std::string a, b;
  {
    serve::SweepClient client = connect(names[0]);
    a = client.submit(request);
  }
  {
    serve::SweepClient client = connect(names[1]);
    b = client.submit(request);
  }
  for (int i = 0; i < 2; ++i) {
    std::ofstream(done_flag[i]) << "done";
    int status = 0;
    ASSERT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon child " << i << " failed: " << status;
  }

  const exec::JsonValue doc_a = exec::json_parse(a);
  const exec::JsonValue doc_b = exec::json_parse(b);
  // A computed everything and persisted it; B never simulated a point.
  EXPECT_EQ(summary_counter(doc_a, "completed"), 4u);
  EXPECT_EQ(summary_counter(doc_a, "store_insertions"), 4u);
  EXPECT_EQ(summary_counter(doc_b, "completed"), 4u);
  EXPECT_EQ(summary_counter(doc_b, "store_hits"), 4u);
  EXPECT_EQ(summary_counter(doc_b, "store_insertions"), 0u);
  // And the result bytes agree across processes.
  const std::size_t det_a = a.find("\"deterministic\"");
  const std::size_t det_b = b.find("\"deterministic\"");
  ASSERT_NE(det_a, std::string::npos);
  ASSERT_NE(det_b, std::string::npos);
  EXPECT_EQ(a.substr(det_a), b.substr(det_b));
}
