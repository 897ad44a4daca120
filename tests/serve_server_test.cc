// End-to-end tests of the soid serving front-end (DESIGN.md "Serving &
// overload"): wire answers bit-identical to direct engine calls, typed
// errors for every failure class, explicit backpressure under queue
// pressure, wire-deadline edges (expired at admission, firing
// mid-evaluation), slow-client eviction, and the graceful-drain state
// machine (including a real SIGTERM through the shared signal watcher).

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_util.h"
#include "common/signal_watch.h"
#include "core/query_engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "test_util.h"

namespace soi {
namespace serve {
namespace {

// A self-contained SOI instance (mirrors the engine_robustness fixture).
struct Instance {
  RoadNetwork network;
  Vocabulary vocabulary;
  std::vector<Poi> pois;
  GridGeometry geometry;
  PoiGridIndex grid;
  GlobalInvertedIndex global_index;
  SegmentCellIndex segment_cells;

  explicit Instance(uint64_t seed = 7, double cell_size = 0.002,
                    int64_t num_pois = 400, int32_t vocab_size = 12)
      : network(testing_util::MakeGridNetwork(5, 5, 0.01)),
        pois(MakePois(seed, num_pois, vocab_size, &vocabulary)),
        geometry(network.bounds().Expanded(0.005), cell_size),
        grid(geometry.bounds(), cell_size, pois),
        global_index(grid),
        segment_cells(network, geometry) {}

  static std::vector<Poi> MakePois(uint64_t seed, int64_t n,
                                   int32_t vocab_size,
                                   Vocabulary* vocabulary) {
    Rng rng(seed);
    Box box = Box::FromCorners(Point{-0.004, -0.004}, Point{0.044, 0.044});
    return testing_util::RandomPois(box, n, vocab_size, vocabulary, &rng);
  }
};

SoiQuery MakeQuery(int32_t k = 5, double eps = 0.002) {
  SoiQuery query;
  query.keywords = KeywordSet({0, 1});
  query.k = k;
  query.eps = eps;
  return query;
}

/// One served instance: engine + started server + client factory.
class ServerFixture {
 public:
  explicit ServerFixture(SoidServerOptions options = {},
                         int engine_threads = 2) {
    QueryEngineOptions engine_options;
    engine_options.num_threads = engine_threads;
    engine_ = std::make_unique<QueryEngine>(
        instance_.network, instance_.grid, instance_.global_index,
        instance_.segment_cells, engine_options);
    server_ = std::make_unique<SoidServer>(engine_.get(), options);
    Status started = server_->Start();
    SOI_CHECK(started.ok()) << started.ToString();
  }

  ~ServerFixture() {
    if (server_->state() != SoidServer::State::kStopped) {
      server_->RequestDrain();
      (void)server_->Wait();
    }
  }

  SoidClient MakeClient(int max_attempts = 1) const {
    SoidClientOptions options;
    options.port = server_->port();
    options.max_attempts = max_attempts;
    options.io_timeout_seconds = 10.0;
    return SoidClient(options);
  }

  Instance& instance() { return instance_; }
  QueryEngine& engine() { return *engine_; }
  SoidServer& server() { return *server_; }

 private:
  Instance instance_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SoidServer> server_;
};

void ExpectBitIdentical(const std::vector<RankedStreet>& got,
                        const std::vector<RankedStreet>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].street, want[i].street);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].interest),
              std::bit_cast<uint64_t>(want[i].interest));
    EXPECT_EQ(got[i].best_segment, want[i].best_segment);
  }
}

TEST(ServeServerTest, AnswersMatchDirectEngineCallBitExactly) {
  ServerFixture fixture;
  SoidClient client = fixture.MakeClient();
  for (int32_t k : {1, 5, 50}) {
    SoiQuery query = MakeQuery(k);
    Result<QueryResponse> served = client.Query(query);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    Result<SoiResult> direct = fixture.engine().TryRun(query);
    ASSERT_TRUE(direct.ok());
    ExpectBitIdentical(served.ValueOrDie().streets,
                       direct.ValueOrDie().streets);
  }
  EXPECT_EQ(fixture.server().stats().responses_ok, 3);
}

TEST(ServeServerTest, InvalidQueryGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fixture;
  SoidClient client = fixture.MakeClient();
  SoiQuery bad = MakeQuery();
  bad.k = 0;
  Result<QueryResponse> rejected = client.Query(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // Identical Status to the direct engine call.
  Result<SoiResult> direct = fixture.engine().TryRun(bad);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), rejected.status().code());
  // A semantically invalid (but well-framed) query does not cost the
  // connection.
  EXPECT_TRUE(client.Query(MakeQuery()).ok());
  EXPECT_EQ(client.stats().reconnects, 1);
}

// Wire-deadline edge 1: a budget that is already spent is shed at
// admission with kDeadlineExceeded, before any engine work runs.
TEST(ServeServerTest, ExpiredDeadlineShedsAtAdmissionBeforeEngineWork) {
  ServerFixture fixture;
  // The proof that the engine never ran: its query counter. (The
  // registry also carries soi.serve.* admission counters, which the shed
  // itself legitimately bumps.)
  auto engine_queries = [] {
    return obs::Registry::Global().Snapshot().CounterOr0("soi.query.count");
  };
  const int64_t queries_before = engine_queries();
  SoidClient client = fixture.MakeClient();
  Result<QueryResponse> shed = client.Query(MakeQuery(), -1.0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  SoidServer::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.expired_at_admission, 1);
  // The engine never saw the query: its run counter did not move.
  EXPECT_EQ(engine_queries(), queries_before);
  // The connection survives — late requests are an error, not an offense.
  EXPECT_TRUE(client.Query(MakeQuery()).ok());
  EXPECT_EQ(engine_queries(), queries_before + 1);
}

// Wire-deadline edge 2: a deadline that fires mid-evaluation surfaces as
// a well-formed kDeadlineExceeded error frame. The engine checks its
// token per filtering iteration / refinement segment, so a small enough
// budget always fires mid-run; halve until it does.
TEST(ServeServerTest, MidEvaluationDeadlineYieldsWellFormedErrorFrame) {
  ServerFixture fixture;
  SoidClient client = fixture.MakeClient();
  SoiQuery query = MakeQuery(50, 0.004);  // the slowest query we have
  double budget = 0.01;
  for (int attempt = 0; attempt < 40; ++attempt) {
    Result<QueryResponse> result = client.Query(query, budget);
    if (!result.ok()) {
      // Typed, well-formed, and specifically the deadline taxonomy entry
      // (admission shed and mid-run expiry share it by design).
      ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status().ToString();
      EXPECT_FALSE(result.status().message().empty());
      // The stream stays usable after a deadline error.
      EXPECT_TRUE(client.Query(MakeQuery()).ok());
      return;
    }
    budget /= 4.0;
  }
  FAIL() << "deadline never fired; queries too fast to race";
}

TEST(ServeServerTest, QueueFullShedsWithResourceExhausted) {
  SoidServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  ServerFixture fixture(options);
  // Pipeline many queries on one raw connection: the reader enqueues far
  // faster than the single worker drains, so the 1-deep queue must shed.
  Result<Socket> raw = Socket::Connect("127.0.0.1",
                                       fixture.server().port(), 5.0);
  ASSERT_TRUE(raw.ok());
  Socket socket = std::move(raw).ValueOrDie();
  ASSERT_TRUE(socket.SetIoTimeouts(30.0, 30.0).ok());
  constexpr int kBurst = 200;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest request;
    request.request_id = static_cast<uint64_t>(i) + 1;
    request.query = MakeQuery(50, 0.004);
    burst += EncodeQueryFrame(request);
  }
  ASSERT_TRUE(socket.SendAll(burst).ok());
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string header_bytes;
    bool clean_eof = false;
    ASSERT_TRUE(socket
                    .RecvExact(kFrameHeaderBytes, &header_bytes, &clean_eof)
                    .ok());
    ASSERT_FALSE(clean_eof);
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes, &header).ok());
    std::string payload;
    if (header.payload_bytes > 0) {
      ASSERT_TRUE(
          socket.RecvExact(header.payload_bytes, &payload, &clean_eof).ok());
      ASSERT_FALSE(clean_eof);
    }
    if (header.type == FrameType::kResult) {
      QueryResponse response;
      ASSERT_TRUE(DecodeResultPayload(payload, &response).ok());
      ++ok;
    } else {
      ASSERT_EQ(header.type, FrameType::kError);
      ErrorResponse error;
      ASSERT_TRUE(DecodeErrorPayload(payload, &error).ok());
      // Backpressure is the only legal failure here, and it is typed.
      ASSERT_EQ(error.status.code(), StatusCode::kResourceExhausted)
          << error.status.ToString();
      ++shed;
    }
  }
  // Every request got exactly one response; under a 1-deep queue the
  // burst must have shed at least once, and sheds are counted.
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(shed, 1);
  EXPECT_GE(ok, 1);  // the valve sheds excess, it does not starve
  SoidServer::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.shed_queue_full, shed);
  EXPECT_EQ(stats.responses_ok, ok);
}

TEST(ServeServerTest, MalformedFrameGetsTypedErrorThenClose) {
  ServerFixture fixture;
  Result<Socket> raw = Socket::Connect("127.0.0.1",
                                       fixture.server().port(), 5.0);
  ASSERT_TRUE(raw.ok());
  Socket socket = std::move(raw).ValueOrDie();
  ASSERT_TRUE(socket.SetIoTimeouts(5.0, 5.0).ok());
  // 12 bytes of garbage: a "header" with the wrong magic.
  ASSERT_TRUE(socket.SendAll(std::string(kFrameHeaderBytes, 'x')).ok());
  std::string header_bytes;
  bool clean_eof = false;
  ASSERT_TRUE(
      socket.RecvExact(kFrameHeaderBytes, &header_bytes, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, &header).ok());
  ASSERT_EQ(header.type, FrameType::kError);
  std::string payload;
  ASSERT_TRUE(
      socket.RecvExact(header.payload_bytes, &payload, &clean_eof).ok());
  ErrorResponse error;
  ASSERT_TRUE(DecodeErrorPayload(payload, &error).ok());
  EXPECT_EQ(error.request_id, 0u);  // connection-scoped error
  EXPECT_EQ(error.status.code(), StatusCode::kInvalidArgument);
  // Fail closed: the connection is then closed.
  std::string rest;
  Status eof = socket.RecvExact(1, &rest, &clean_eof);
  EXPECT_TRUE(eof.ok() && clean_eof) << eof.ToString();
  EXPECT_EQ(fixture.server().stats().bad_frames, 1);
}

TEST(ServeServerTest, SlowClientStallingMidFrameIsEvicted) {
  SoidServerOptions options;
  options.read_timeout_seconds = 0.2;
  ServerFixture fixture(options);
  Result<Socket> raw = Socket::Connect("127.0.0.1",
                                       fixture.server().port(), 5.0);
  ASSERT_TRUE(raw.ok());
  Socket socket = std::move(raw).ValueOrDie();
  ASSERT_TRUE(socket.SetIoTimeouts(5.0, 5.0).ok());
  // Send a valid query frame's first half, then stall.
  std::string frame = EncodeQueryFrame({1, MakeQuery(), false, 0.0});
  ASSERT_TRUE(socket.SendAll(frame.substr(0, frame.size() / 2)).ok());
  // The server must cut us off rather than pin its reader forever.
  std::string out;
  bool clean_eof = false;
  Status status = socket.RecvExact(1, &out, &clean_eof);
  EXPECT_TRUE(clean_eof || !status.ok());
  EXPECT_EQ(fixture.server().stats().evicted_slow, 1);
}

TEST(ServeServerTest, IdleConnectionIsNotEvicted) {
  SoidServerOptions options;
  options.read_timeout_seconds = 0.1;
  ServerFixture fixture(options);
  SoidClient client = fixture.MakeClient();
  ASSERT_TRUE(client.Query(MakeQuery()).ok());
  // Idle (no frame in progress) for several read timeouts: the
  // connection must survive — only mid-frame stalls are eviction-worthy.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(client.Query(MakeQuery()).ok());
  EXPECT_EQ(client.stats().reconnects, 1);
  EXPECT_EQ(fixture.server().stats().evicted_slow, 0);
}

TEST(ServeServerTest, ConnectionCapRejectsWithTypedError) {
  SoidServerOptions options;
  options.max_connections = 1;
  ServerFixture fixture(options);
  SoidClient first = fixture.MakeClient();
  ASSERT_TRUE(first.Query(MakeQuery()).ok());  // occupies the one slot
  SoidClient second = fixture.MakeClient();
  Result<QueryResponse> rejected = second.Query(MakeQuery());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fixture.server().stats().connections_rejected, 1);
}

TEST(ServeServerTest, GracefulDrainFinishesInFlightAndFlushesState) {
  std::string state_path = ::testing::TempDir() + "soid_drain_state.json";
  (void)std::remove(state_path.c_str());
  SoidServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 256;
  options.drain_deadline_seconds = 30.0;
  options.drain_state_path = state_path;
  ServerFixture fixture(options);
  // Pipeline a burst, then immediately drain: every admitted request
  // must still be answered.
  Result<Socket> raw = Socket::Connect("127.0.0.1",
                                       fixture.server().port(), 5.0);
  ASSERT_TRUE(raw.ok());
  Socket socket = std::move(raw).ValueOrDie();
  ASSERT_TRUE(socket.SetIoTimeouts(30.0, 30.0).ok());
  constexpr int kBurst = 32;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += EncodeQueryFrame(
        {static_cast<uint64_t>(i) + 1, MakeQuery(10, 0.003), false, 0.0});
  }
  ASSERT_TRUE(socket.SendAll(burst).ok());
  fixture.server().RequestDrain();
  Status drained = fixture.server().Wait();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_EQ(fixture.server().state(), SoidServer::State::kStopped);

  // No new connections after drain began.
  Result<Socket> late = Socket::Connect("127.0.0.1",
                                        fixture.server().port(), 0.5);
  EXPECT_FALSE(late.ok());

  // Every request seen was answered — evaluated if it was read before
  // the drain transition, rejected with a typed kUnavailable frame if it
  // raced in after (the burst may be cut short at the first rejection,
  // but nothing read is ever silently dropped).
  SoidServer::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.responses_ok + stats.responses_error, stats.requests);
  EXPECT_EQ(stats.drain_cancelled, 0);

  // The drain flushed a valid obs state file.
  std::ifstream file(state_path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  EXPECT_TRUE(ValidateJson(content.str()).ok());
  (void)std::remove(state_path.c_str());
}

// The drain race: a request accepted by the kernel (sent, buffered, or
// even mid-frame on the wire) before the drain transition but read by
// the server after kServing -> kDraining must get a typed kUnavailable
// error frame — not the silently dropped connection the old
// half-close-on-drain design produced when it discarded buffered
// inbound bytes.
TEST(ServeServerTest, RequestRacingDrainGetsTypedUnavailableNotSilentDrop) {
  SoidServerOptions options;
  options.drain_deadline_seconds = 30.0;
  ServerFixture fixture(options);
  Result<Socket> raw = Socket::Connect("127.0.0.1",
                                       fixture.server().port(), 5.0);
  ASSERT_TRUE(raw.ok());
  Socket socket = std::move(raw).ValueOrDie();
  ASSERT_TRUE(socket.SetIoTimeouts(30.0, 30.0).ok());

  // Frame 1 establishes the connection and is answered normally.
  ASSERT_TRUE(socket.SendAll(EncodeQueryFrame({1, MakeQuery(), false, 0.0}))
                  .ok());
  auto read_frame = [&socket](FrameHeader* header, std::string* payload) {
    std::string header_bytes;
    bool clean_eof = false;
    Status status =
        socket.RecvExact(kFrameHeaderBytes, &header_bytes, &clean_eof);
    if (!status.ok() || clean_eof) return false;
    if (!DecodeFrameHeader(header_bytes, header).ok()) return false;
    payload->clear();
    if (header->payload_bytes > 0 &&
        (!socket.RecvExact(header->payload_bytes, payload, &clean_eof)
              .ok() ||
         clean_eof)) {
      return false;
    }
    return true;
  };
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(read_frame(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kResult);

  // Frame 2 races the drain: its first byte is on the wire before the
  // transition, the rest arrives only after the server is draining.
  std::string frame = EncodeQueryFrame({2, MakeQuery(), false, 0.0});
  ASSERT_TRUE(socket.SendAll(frame.substr(0, 1)).ok());
  fixture.server().RequestDrain();
  std::thread waiter([&fixture] {
    Status drained = fixture.server().Wait();
    EXPECT_TRUE(drained.ok()) << drained.ToString();
  });
  // draining_reads_ is published before the kDraining state, so once the
  // state reads kDraining the frame below is guaranteed to hit the
  // drain-rejection path.
  while (fixture.server().state() != SoidServer::State::kDraining) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(socket.SendAll(frame.substr(1)).ok());

  // The answer must be a typed kUnavailable error frame for request 2 —
  // an EOF here is the silent drop this test exists to forbid.
  ASSERT_TRUE(read_frame(&header, &payload))
      << "connection dropped without a typed drain rejection";
  ASSERT_EQ(header.type, FrameType::kError);
  ErrorResponse error;
  ASSERT_TRUE(DecodeErrorPayload(payload, &error).ok());
  EXPECT_EQ(error.request_id, 2u);
  EXPECT_EQ(error.status.code(), StatusCode::kUnavailable)
      << error.status.ToString();
  // After the typed answer the connection closes.
  std::string rest;
  bool clean_eof = false;
  Status eof = socket.RecvExact(1, &rest, &clean_eof);
  EXPECT_TRUE(clean_eof || !eof.ok());
  waiter.join();
  SoidServer::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.rejected_draining, 1);
  EXPECT_EQ(stats.responses_ok, 1);
  EXPECT_EQ(stats.responses_ok + stats.responses_error, stats.requests);
}

TEST(ServeServerTest, DrainDeadlineCancelsQueuedWorkWithTypedErrors) {
  SoidServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 256;
  options.drain_deadline_seconds = 0.0;  // cancel immediately
  ServerFixture fixture(options);
  Result<Socket> raw = Socket::Connect("127.0.0.1",
                                       fixture.server().port(), 5.0);
  ASSERT_TRUE(raw.ok());
  Socket socket = std::move(raw).ValueOrDie();
  ASSERT_TRUE(socket.SetIoTimeouts(30.0, 30.0).ok());
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += EncodeQueryFrame(
        {static_cast<uint64_t>(i) + 1, MakeQuery(50, 0.004), false, 0.0});
  }
  ASSERT_TRUE(socket.SendAll(burst).ok());
  // Read responses concurrently so the server is never write-blocked.
  std::atomic<int> ok{0};
  std::atomic<int> cancelled{0};
  std::atomic<int> other{0};
  std::thread reader([&] {
    while (true) {
      std::string header_bytes;
      bool clean_eof = false;
      if (!socket.RecvExact(kFrameHeaderBytes, &header_bytes, &clean_eof)
               .ok() ||
          clean_eof) {
        return;
      }
      FrameHeader header;
      if (!DecodeFrameHeader(header_bytes, &header).ok()) return;
      std::string payload;
      if (header.payload_bytes > 0 &&
          (!socket.RecvExact(header.payload_bytes, &payload, &clean_eof)
                .ok() ||
           clean_eof)) {
        return;
      }
      if (header.type == FrameType::kResult) {
        ++ok;
      } else if (header.type == FrameType::kError) {
        ErrorResponse error;
        if (DecodeErrorPayload(payload, &error).ok() &&
            (error.status.code() == StatusCode::kCancelled ||
             error.status.code() == StatusCode::kDeadlineExceeded)) {
          ++cancelled;
        } else {
          ++other;
        }
      }
    }
  });
  // Give the reader thread a moment to admit some of the burst, then
  // drain with a zero budget: queued work must be answered kCancelled.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture.server().RequestDrain();
  Status drained = fixture.server().Wait();
  reader.join();
  SoidServer::Stats stats = fixture.server().stats();
  // Everything admitted was answered — ok, or typed cancellation.
  EXPECT_EQ(ok + cancelled + other, stats.requests);
  EXPECT_EQ(other, 0);
  if (stats.drain_cancelled > 0) {
    // The zero budget actually cancelled work, and Wait reported it.
    EXPECT_EQ(drained.code(), StatusCode::kDeadlineExceeded);
    EXPECT_GE(cancelled.load(), 1);
  }
}

// The SIGTERM path end to end, through the shared signal-watch mask:
// process-directed SIGTERM -> watcher -> RequestDrain -> Wait returns.
// The watcher is installed BEFORE the server exists so every server and
// engine thread inherits the blocked mask — a thread created earlier
// could otherwise swallow the signal in the no-op disposition
// (common/signal_watch.h "call early in main()" contract, exercised
// for real here).
std::atomic<SoidServer*> sigterm_target{nullptr};

TEST(ServeServerTest, SigtermTriggersGracefulDrain) {
  ASSERT_TRUE(WatchSignal(SIGTERM,
                          [] {
                            SoidServer* server = sigterm_target.load();
                            if (server != nullptr) server->RequestDrain();
                          })
                  .ok());
  ServerFixture fixture;
  sigterm_target.store(&fixture.server());
  // The convenience installer rides the same per-signal slot, so a
  // second claim on SIGTERM is refused rather than racing.
  EXPECT_EQ(InstallSigtermDrain(&fixture.server()).code(),
            StatusCode::kAlreadyExists);
  SoidClient client = fixture.MakeClient();
  ASSERT_TRUE(client.Query(MakeQuery()).ok());
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  Status drained = fixture.server().Wait();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_EQ(fixture.server().state(), SoidServer::State::kStopped);
  sigterm_target.store(nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace soi
