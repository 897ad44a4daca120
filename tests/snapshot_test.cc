// Snapshot round-trip property tests (DESIGN.md "Persistence & warm
// start"): a preset city saved and restored must serve bit-identical
// k-SOI rankings AND diversified photo summaries through the warm-start
// path, and structurally damaged snapshots (truncation, bit flips, bad
// magic, unsupported version) must fail with typed errors — never a
// crash. The injected-fault cases run fully under the `fault` preset and
// degrade to happy-path checks elsewhere.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/diversify/greedy_baseline.h"
#include "core/diversify/st_rel_div.h"
#include "core/query_engine.h"
#include "core/street_photos.h"
#include "datagen/dataset.h"
#include "gtest/gtest.h"
#include "snapshot/byte_io.h"
#include "snapshot/snapshot.h"
#include "test_util.h"

namespace soi {
namespace {

constexpr double kCellSize = 0.0005;
constexpr double kEps = 0.0005;

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityProfile profile = testing_util::TinyCityProfile(7);
    dataset_ = new Dataset(GenerateCity(profile).ValueOrDie());
    indexes_ = BuildIndexes(*dataset_, kCellSize).release();
    eps_maps_ = new EpsAugmentedMaps(indexes_->segment_cells, kEps);
  }

  static void TearDownTestSuite() {
    delete eps_maps_;
    delete indexes_;
    delete dataset_;
    eps_maps_ = nullptr;
    indexes_ = nullptr;
    dataset_ = nullptr;
  }

  static std::string Encode() {
    SnapshotContents contents;
    contents.dataset = dataset_;
    contents.indexes = indexes_;
    contents.eps_maps.push_back(eps_maps_);
    std::ostringstream out;
    Status saved = SaveSnapshot(contents, &out);
    SOI_CHECK(saved.ok()) << saved.ToString();
    return std::move(out).str();
  }

  static Result<LoadedSnapshot> Decode(const std::string& bytes) {
    std::istringstream in(bytes);
    return LoadSnapshot(&in);
  }

  static Dataset* dataset_;
  static DatasetIndexes* indexes_;
  static EpsAugmentedMaps* eps_maps_;
};

Dataset* SnapshotTest::dataset_ = nullptr;
DatasetIndexes* SnapshotTest::indexes_ = nullptr;
EpsAugmentedMaps* SnapshotTest::eps_maps_ = nullptr;

SoiQuery MakeQuery(const Dataset& dataset, int32_t k) {
  SoiQuery query;
  query.keywords = KeywordSet({dataset.vocabulary.Find("shop"),
                               dataset.vocabulary.Find("food")});
  query.k = k;
  query.eps = kEps;
  return query;
}

TEST_F(SnapshotTest, RoundTripRestoresTheDatasetExactly) {
  Result<LoadedSnapshot> loaded = Decode(Encode());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedSnapshot& snap = loaded.ValueOrDie();

  EXPECT_EQ(snap.dataset->name, dataset_->name);
  EXPECT_EQ(snap.dataset->vocabulary.size(), dataset_->vocabulary.size());
  ASSERT_EQ(snap.dataset->network.num_vertices(),
            dataset_->network.num_vertices());
  ASSERT_EQ(snap.dataset->network.num_segments(),
            dataset_->network.num_segments());
  ASSERT_EQ(snap.dataset->network.num_streets(),
            dataset_->network.num_streets());
  ASSERT_EQ(snap.dataset->pois.size(), dataset_->pois.size());
  ASSERT_EQ(snap.dataset->photos.size(), dataset_->photos.size());

  // Bit-exact spot checks of the payloads the format must round-trip.
  for (size_t i = 0; i < dataset_->pois.size(); ++i) {
    ASSERT_EQ(snap.dataset->pois[i].position.x,
              dataset_->pois[i].position.x);
    ASSERT_EQ(snap.dataset->pois[i].weight, dataset_->pois[i].weight);
    ASSERT_EQ(snap.dataset->pois[i].keywords.ids(),
              dataset_->pois[i].keywords.ids());
  }
  for (int64_t v = 0; v < dataset_->network.num_vertices(); ++v) {
    ASSERT_EQ(
        snap.dataset->network.vertices()[static_cast<size_t>(v)].position.x,
        dataset_->network.vertices()[static_cast<size_t>(v)].position.x);
  }

  // The restored geometry is the one a fresh BuildIndexes would derive.
  EXPECT_EQ(snap.indexes->geometry.bounds().min.x,
            ComputeDatasetBounds(*dataset_).min.x);
  EXPECT_EQ(snap.indexes->geometry.num_cells(),
            indexes_->geometry.num_cells());

  // Segment/cell maps and the restored eps maps are bit-identical.
  for (SegmentId s = 0; s < dataset_->network.num_segments(); ++s) {
    ASSERT_EQ(snap.indexes->segment_cells.SegmentCells(s),
              indexes_->segment_cells.SegmentCells(s));
  }
  ASSERT_EQ(snap.eps_maps.size(), 1u);
  EXPECT_EQ(snap.eps_maps[0]->eps(), kEps);
  for (SegmentId s = 0; s < dataset_->network.num_segments(); ++s) {
    ASSERT_EQ(snap.eps_maps[0]->SegmentCells(s),
              eps_maps_->SegmentCells(s));
  }
}

// Byte-format regression for the flat-CSR index layout: decoding a
// snapshot and re-encoding the loaded contents reproduces the original
// bytes exactly. A layout change that shifted the on-disk format (or a
// lossy CSR decode) would break the fixed point; "SOISNAP1" files keep
// loading with no format bump.
TEST_F(SnapshotTest, ReEncodingALoadedSnapshotIsByteIdentical) {
  std::string bytes = Encode();
  Result<LoadedSnapshot> loaded = Decode(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedSnapshot& snap = loaded.ValueOrDie();

  SnapshotContents contents;
  contents.dataset = snap.dataset.get();
  contents.indexes = snap.indexes.get();
  for (const std::shared_ptr<const EpsAugmentedMaps>& maps : snap.eps_maps) {
    contents.eps_maps.push_back(maps.get());
  }
  std::ostringstream out;
  Status saved = SaveSnapshot(contents, &out);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(std::move(out).str(), bytes);
}

TEST_F(SnapshotTest, WarmStartServesBitIdenticalTopK) {
  Result<LoadedSnapshot> loaded = Decode(Encode());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedSnapshot& snap = loaded.ValueOrDie();

  QueryEngineOptions options;
  QueryEngine fresh(dataset_->network, indexes_->poi_grid,
                    indexes_->global_index, indexes_->segment_cells,
                    options);
  QueryEngine warm(snap.dataset->network, snap.indexes->poi_grid,
                   snap.indexes->global_index, snap.indexes->segment_cells,
                   options, snap.eps_maps);

  for (int32_t k : {1, 5, 20}) {
    SoiQuery query = MakeQuery(*dataset_, k);
    SoiResult want = fresh.TryRun(query).ValueOrDie();
    SoiResult got = warm.TryRun(query).ValueOrDie();
    ASSERT_EQ(got.streets.size(), want.streets.size());
    for (size_t r = 0; r < got.streets.size(); ++r) {
      EXPECT_EQ(got.streets[r].street, want.streets[r].street);
      EXPECT_EQ(got.streets[r].interest, want.streets[r].interest);
      EXPECT_EQ(got.streets[r].best_segment, want.streets[r].best_segment);
    }
  }
  // Every warm query hit the preloaded maps; nothing was rebuilt.
  EXPECT_EQ(warm.cache_stats().misses, 0);
  EXPECT_GT(warm.cache_stats().hits, 0);
}

TEST_F(SnapshotTest, WarmStartServesBitIdenticalDiversification) {
  Result<LoadedSnapshot> loaded = Decode(Encode());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedSnapshot& snap = loaded.ValueOrDie();

  // Describe the fresh pipeline's top street from both pipelines; the
  // diversified summaries must match photo-for-photo.
  SoiQuery query = MakeQuery(*dataset_, 1);
  QueryEngine fresh(dataset_->network, indexes_->poi_grid,
                    indexes_->global_index, indexes_->segment_cells, {});
  StreetId top = fresh.TryRun(query).ValueOrDie().streets.at(0).street;

  DiversifyParams params;
  params.k = 5;
  params.rho = 0.0001;
  auto summarize = [&](const Dataset& dataset,
                       const DatasetIndexes& indexes) {
    StreetPhotos sp = ExtractStreetPhotos(dataset.network, top,
                                          dataset.photos,
                                          indexes.photo_grid, query.eps);
    PhotoScorer scorer(sp, params.rho);
    PhotoGridIndex index(params.rho / 2, sp.photos);
    CellBoundsCalculator cell_bounds(sp, index);
    return StRelDivSelect(scorer, cell_bounds, params).selected;
  };
  std::vector<PhotoId> want = summarize(*dataset_, *indexes_);
  std::vector<PhotoId> got = summarize(*snap.dataset, *snap.indexes);
  EXPECT_EQ(got, want);
  EXPECT_FALSE(want.empty());
}

TEST_F(SnapshotTest, InspectReportsSectionsAndCounts) {
  std::string bytes = Encode();
  std::istringstream in(bytes);
  Result<SnapshotInfo> info = InspectSnapshot(&in);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info.ValueOrDie().dataset_name, dataset_->name);
  EXPECT_EQ(info.ValueOrDie().num_pois, dataset_->pois.size());
  EXPECT_EQ(info.ValueOrDie().total_bytes, bytes.size());
  ASSERT_EQ(info.ValueOrDie().sections.size(), 9u);
  EXPECT_EQ(info.ValueOrDie().sections.front().name, "meta");
  ASSERT_EQ(info.ValueOrDie().eps_values.size(), 1u);
  EXPECT_EQ(info.ValueOrDie().eps_values[0], kEps);
}

TEST_F(SnapshotTest, FileRoundTripMatchesStreamRoundTrip) {
  std::string path = ::testing::TempDir() + "/soi_snapshot_test.snap";
  SnapshotContents contents;
  contents.dataset = dataset_;
  contents.indexes = indexes_;
  contents.eps_maps.push_back(eps_maps_);
  ASSERT_TRUE(SaveSnapshotToFile(contents, path).ok());
  Result<LoadedSnapshot> loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().dataset->pois.size(),
            dataset_->pois.size());
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, BadMagicFailsTyped) {
  std::string bytes = Encode();
  bytes[0] = 'X';
  Result<LoadedSnapshot> loaded = Decode(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, UnsupportedVersionFailsTyped) {
  std::string bytes = Encode();
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  Result<LoadedSnapshot> loaded = Decode(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, IngestMetaFieldsRoundTripThroughSaveLoadInspect) {
  SnapshotContents contents;
  contents.dataset = dataset_;
  contents.indexes = indexes_;
  contents.ingest_epoch = 7;
  contents.ingest_applied_ops = 42;
  std::ostringstream out;
  ASSERT_TRUE(SaveSnapshot(contents, &out).ok());
  std::string bytes = std::move(out).str();

  Result<LoadedSnapshot> loaded = Decode(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().ingest_epoch, 7u);
  EXPECT_EQ(loaded.ValueOrDie().ingest_applied_ops, 42u);

  std::istringstream in(bytes);
  Result<SnapshotInfo> info = InspectSnapshot(&in);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info.ValueOrDie().ingest_epoch, 7u);
  EXPECT_EQ(info.ValueOrDie().ingest_applied_ops, 42u);
}

/// Rewrites a current-version snapshot into a byte-exact v1 file: patch
/// the header version and strip the meta section's 16 trailing ingest
/// bytes (re-CRC'd). Returns the original bytes' meta payload length via
/// `meta_len` for the negative variant below.
std::string RewriteAsVersionOne(std::string bytes, bool strip_ingest) {
  // Header: magic(8) + version u32 + section count u32.
  bytes[8] = 1;
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = 0;
  if (!strip_ingest) return bytes;
  // The meta section leads at offset 16: u32 id, u64 bytes, u32 crc.
  ByteReader r(std::string_view(bytes).substr(16, 16));
  uint32_t id = 0;
  uint64_t len = 0;
  SOI_CHECK(r.ReadU32(&id).ok() && id == 1);
  SOI_CHECK(r.ReadU64(&len).ok() && len >= 16);
  std::string v1_meta = bytes.substr(32, static_cast<size_t>(len) - 16);
  ByteWriter header;
  header.PutU32(id);
  header.PutU64(v1_meta.size());
  header.PutU32(Crc32(v1_meta));
  return bytes.substr(0, 16) + header.data() + v1_meta +
         bytes.substr(32 + static_cast<size_t>(len));
}

TEST_F(SnapshotTest, VersionOneFilesStillLoadWithZeroIngestFields) {
  std::string v1 = RewriteAsVersionOne(Encode(), /*strip_ingest=*/true);
  Result<LoadedSnapshot> loaded = Decode(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().ingest_epoch, 0u);
  EXPECT_EQ(loaded.ValueOrDie().ingest_applied_ops, 0u);
  EXPECT_EQ(loaded.ValueOrDie().dataset->pois.size(),
            dataset_->pois.size());

  std::istringstream in(v1);
  Result<SnapshotInfo> info = InspectSnapshot(&in);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().format_version, 1u);
  EXPECT_EQ(info.ValueOrDie().ingest_epoch, 0u);
}

TEST_F(SnapshotTest, VersionOneMetaWithTrailingBytesFailsTyped) {
  // A "v1" file whose meta still carries the v2 trailing fields is
  // corruption under the strict per-version length check — never a
  // silent partial decode.
  std::string bad = RewriteAsVersionOne(Encode(), /*strip_ingest=*/false);
  Result<LoadedSnapshot> loaded = Decode(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().ToString().find("trailing"),
            std::string::npos);
}

TEST_F(SnapshotTest, EveryTruncationFailsTyped) {
  std::string bytes = Encode();
  // Every prefix is invalid; probe a spread of lengths (every byte would
  // make the test quadratic in snapshot size).
  for (size_t len = 0; len < bytes.size();
       len += 1 + bytes.size() / 257) {
    Result<LoadedSnapshot> loaded = Decode(bytes.substr(0, len));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << len;
  }
}

TEST_F(SnapshotTest, BitFlipsFailTyped) {
  const std::string bytes = Encode();
  // Flip one bit at a spread of offsets past the header (header damage
  // is covered above). CRC catches payload flips; section-header flips
  // surface as bad ids/sizes/CRCs. Either way: a typed error or — for
  // flips in ignored positions — a clean load, never a crash.
  for (size_t pos = 16; pos < bytes.size();
       pos += 1 + bytes.size() / 131) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x10);
    Result<LoadedSnapshot> loaded = Decode(damaged);
    if (!loaded.ok()) {
      StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kIOError ||
                  code == StatusCode::kInvalidArgument)
          << "flip at " << pos << ": " << loaded.status().ToString();
    }
  }
}

TEST_F(SnapshotTest, PayloadCorruptionUnderValidCrcFailsTyped) {
  // Re-CRC a corrupted section so damage reaches the decoders: zero a
  // byte inside the network section's payload, then fix up its header
  // CRC. The decoder-level validation must still reject it.
  std::string bytes = Encode();
  size_t pos = 16;  // first section header
  std::vector<std::pair<size_t, size_t>> sections;  // header pos, size
  while (pos + 16 <= bytes.size()) {
    ByteReader r(std::string_view(bytes).substr(pos, 16));
    uint32_t id = 0;
    uint64_t size = 0;
    ASSERT_TRUE(r.ReadU32(&id).ok());
    ASSERT_TRUE(r.ReadU64(&size).ok());
    sections.emplace_back(pos, static_cast<size_t>(size));
    pos += 16 + static_cast<size_t>(size);
  }
  ASSERT_EQ(sections.size(), 9u);
  // Section 2 (index) is the network; corrupt a vertex id deep inside.
  auto [header_pos, size] = sections[2];
  size_t payload_pos = header_pos + 16;
  bytes[payload_pos + size - 2] = static_cast<char>(0xff);
  uint32_t crc = Crc32(std::string_view(bytes).substr(payload_pos, size));
  ByteWriter w;
  w.PutU32(crc);
  for (int i = 0; i < 4; ++i) bytes[header_pos + 12 + i] = w.data()[i];

  Result<LoadedSnapshot> loaded = Decode(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, WriteFaultSurfacesAsInternal) {
  SnapshotContents contents;
  contents.dataset = dataset_;
  contents.indexes = indexes_;
  fault::ScopedFault armed("snapshot.write_section", fault::FaultPlan{});
  std::ostringstream out;
  Status saved = SaveSnapshot(contents, &out);
  if (fault::kEnabled) {
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.code(), StatusCode::kInternal);
  } else {
    EXPECT_TRUE(saved.ok());
  }
}

TEST_F(SnapshotTest, ReadFaultSurfacesAsInternalAndRetrySucceeds) {
  std::string bytes = Encode();
  {
    fault::ScopedFault armed("snapshot.read_section",
                             fault::FaultPlan{.after = 3});
    Result<LoadedSnapshot> loaded = Decode(bytes);
    if (fault::kEnabled) {
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
    } else {
      EXPECT_TRUE(loaded.ok());
    }
  }
  // Disarmed, the same bytes load cleanly — the failure was injected,
  // not sticky.
  EXPECT_TRUE(Decode(bytes).ok());
}

}  // namespace
}  // namespace soi
