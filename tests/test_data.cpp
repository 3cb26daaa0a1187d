#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/idx.hpp"
#include "temp_path.hpp"

namespace hynapse::data {
namespace {

TEST(Digits, DeterministicForSeed) {
  const Dataset a = generate_digits(50, 42);
  const Dataset b = generate_digits(50, 42);
  EXPECT_EQ(a.images, b.images);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Digits, DifferentSeedsDiffer) {
  const Dataset a = generate_digits(50, 1);
  const Dataset b = generate_digits(50, 2);
  EXPECT_NE(a.images, b.images);
}

TEST(Digits, BalancedClasses) {
  const Dataset ds = generate_digits(1000, 7);
  const auto hist = class_histogram(ds);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(hist[c], 100u) << c;
}

TEST(Digits, PixelsNormalized) {
  const Dataset ds = generate_digits(100, 3);
  for (float v : ds.images.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Digits, DigitsHaveInk) {
  const Dataset ds = generate_digits(100, 5);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    double ink = 0.0;
    for (std::size_t p = 0; p < kDigitPixels; ++p) ink += ds.images.at(i, p);
    EXPECT_GT(ink, 10.0) << "sample " << i << " is blank";
    EXPECT_LT(ink, 500.0) << "sample " << i << " is saturated";
  }
}

TEST(Digits, BorderPixelsMostlyEmpty) {
  // The property the paper's input-layer-resilience argument rests on:
  // informative pixels concentrate in the centre.
  const Dataset ds = generate_digits(500, 11);
  double border_ink = 0.0;
  double center_ink = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t r = 0; r < kDigitSide; ++r) {
      for (std::size_t c = 0; c < kDigitSide; ++c) {
        const float v = ds.images.at(i, r * kDigitSide + c);
        const bool border = r < 2 || r >= kDigitSide - 2 || c < 2 ||
                            c >= kDigitSide - 2;
        (border ? border_ink : center_ink) += v;
      }
    }
  }
  EXPECT_LT(border_ink, 0.10 * center_ink);
}

TEST(Digits, ClassesAreVisuallyDistinct) {
  // Mean images of different classes should differ substantially (L2).
  const Dataset ds = generate_digits(500, 13);
  std::vector<std::vector<double>> means(10,
                                         std::vector<double>(kDigitPixels));
  std::vector<int> counts(10, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const int y = ds.labels[i];
    ++counts[y];
    for (std::size_t p = 0; p < kDigitPixels; ++p)
      means[y][p] += ds.images.at(i, p);
  }
  for (int c = 0; c < 10; ++c)
    for (auto& v : means[c]) v /= counts[c];
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      double dist = 0.0;
      for (std::size_t p = 0; p < kDigitPixels; ++p) {
        const double d = means[a][p] - means[b][p];
        dist += d * d;
      }
      EXPECT_GT(std::sqrt(dist), 1.0) << a << " vs " << b;
    }
  }
}

TEST(Digits, RenderAllClassesDirectly) {
  std::vector<float> px(kDigitPixels);
  for (int d = 0; d < 10; ++d) {
    render_digit(d, 99, DigitGenOptions{}, px.data());
    const double ink = std::accumulate(px.begin(), px.end(), 0.0);
    EXPECT_GT(ink, 10.0) << "digit " << d;
  }
}

TEST(Digits, AsciiArtHasExpectedShape) {
  std::vector<float> px(kDigitPixels, 0.0f);
  const std::string art = ascii_art(px.data());
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'),
            static_cast<std::ptrdiff_t>(kDigitSide));
}

TEST(Dataset, HeadTakesPrefix) {
  const Dataset ds = generate_digits(100, 17);
  const Dataset h = ds.head(30);
  EXPECT_EQ(h.size(), 30u);
  EXPECT_EQ(h.labels[7], ds.labels[7]);
  for (std::size_t p = 0; p < kDigitPixels; ++p)
    EXPECT_FLOAT_EQ(h.images.at(7, p), ds.images.at(7, p));
  EXPECT_EQ(ds.head(1000).size(), 100u);  // clamps
}

TEST(Idx, ImagesRoundTrip) {
  const Dataset ds = generate_digits(20, 19);
  const std::string path = hynapse::testing::temp_path("images.idx3");
  write_idx_images(ds.images, kDigitSide, kDigitSide, path);
  const auto loaded = read_idx_images(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->rows(), 20u);
  EXPECT_EQ(loaded->cols(), kDigitPixels);
  // Byte quantization allows 1/255 error.
  for (std::size_t i = 0; i < loaded->size(); ++i)
    EXPECT_NEAR(loaded->data()[i], ds.images.data()[i], 1.0 / 255.0 + 1e-6);
  std::filesystem::remove(path);
}

TEST(Idx, LabelsRoundTrip) {
  const std::vector<std::uint8_t> labels{3, 1, 4, 1, 5, 9, 2, 6};
  const std::string path = hynapse::testing::temp_path("labels.idx1");
  write_idx_labels(labels, path);
  const auto loaded = read_idx_labels(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, labels);
  std::filesystem::remove(path);
}

TEST(Idx, DatasetPairLoad) {
  const Dataset ds = generate_digits(15, 23);
  const std::string ip = hynapse::testing::temp_path("pair.idx3");
  const std::string lp = hynapse::testing::temp_path("pair.idx1");
  write_idx_images(ds.images, kDigitSide, kDigitSide, ip);
  write_idx_labels(ds.labels, lp);
  const auto loaded = load_idx_dataset(ip, lp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 15u);
  EXPECT_EQ(loaded->labels, ds.labels);
  std::filesystem::remove(ip);
  std::filesystem::remove(lp);
}

TEST(Idx, MissingOrMalformedGivesNullopt) {
  EXPECT_FALSE(
      read_idx_images(hynapse::testing::temp_path("nope.idx3")).has_value());
  const std::string path = hynapse::testing::temp_path("bad.idx3");
  {
    std::ofstream out{path, std::ios::binary};
    out << "junk";
  }
  EXPECT_FALSE(read_idx_images(path).has_value());
  EXPECT_FALSE(read_idx_labels(path).has_value());
  std::filesystem::remove(path);
}

TEST(Idx, WriterRejectsShapeMismatch) {
  const Dataset ds = generate_digits(5, 29);
  EXPECT_THROW(write_idx_images(ds.images, 10, 10,
                                hynapse::testing::temp_path("x.idx3")),
               std::invalid_argument);
}

}  // namespace
}  // namespace hynapse::data
