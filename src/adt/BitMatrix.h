//===- adt/BitMatrix.h - Dense cache-aligned bitset rows -------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense 2-D bit matrix with cache-line-aligned rows, built for the flat
/// FIRST/FOLLOW tables (one row per nonterminal, one column per terminal)
/// and any other fixed-universe set family that is hot enough to deserve a
/// flat layout. Membership is one shift+mask; the fixpoint workhorses are
/// word-wise row ORs that report whether anything changed, so monotone
/// dataflow loops run at memory speed instead of tree-rebalancing speed.
///
/// Rows are padded to a whole number of cache lines and the backing store
/// is 64-byte aligned, so a row never straddles more lines than it needs
/// and two rows never share a line (no false sharing when threads read
/// disjoint rows).
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_BITMATRIX_H
#define COSTAR_ADT_BITMATRIX_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>

namespace costar {
namespace adt {

class BitMatrix {
  static constexpr uint32_t WordsPerLine = 8; // 64 bytes

  uint64_t *Words = nullptr;
  uint32_t NumRows = 0;
  uint32_t NumCols = 0;
  /// Words per row, rounded up to a whole cache line.
  uint32_t Stride = 0;

  static uint64_t *allocWords(size_t N) {
    return static_cast<uint64_t *>(
        ::operator new(N * sizeof(uint64_t), std::align_val_t{64}));
  }
  static void freeWords(uint64_t *P) {
    ::operator delete(P, std::align_val_t{64});
  }

public:
  BitMatrix() = default;

  BitMatrix(uint32_t Rows, uint32_t Cols) : NumRows(Rows), NumCols(Cols) {
    uint32_t RawWords = (Cols + 63) / 64;
    Stride = ((RawWords + WordsPerLine - 1) / WordsPerLine) * WordsPerLine;
    if (Stride == 0)
      Stride = WordsPerLine;
    size_t Total = static_cast<size_t>(NumRows) * Stride;
    if (Total) {
      Words = allocWords(Total);
      std::memset(Words, 0, Total * sizeof(uint64_t));
    }
  }

  BitMatrix(const BitMatrix &Other)
      : NumRows(Other.NumRows), NumCols(Other.NumCols), Stride(Other.Stride) {
    size_t Total = static_cast<size_t>(NumRows) * Stride;
    if (Total) {
      Words = allocWords(Total);
      std::memcpy(Words, Other.Words, Total * sizeof(uint64_t));
    }
  }

  BitMatrix(BitMatrix &&Other) noexcept
      : Words(std::exchange(Other.Words, nullptr)),
        NumRows(std::exchange(Other.NumRows, 0)),
        NumCols(std::exchange(Other.NumCols, 0)),
        Stride(std::exchange(Other.Stride, 0)) {}

  BitMatrix &operator=(BitMatrix Other) noexcept {
    std::swap(Words, Other.Words);
    std::swap(NumRows, Other.NumRows);
    std::swap(NumCols, Other.NumCols);
    std::swap(Stride, Other.Stride);
    return *this;
  }

  ~BitMatrix() { freeWords(Words); }

  uint32_t rows() const { return NumRows; }
  uint32_t cols() const { return NumCols; }
  uint32_t wordsPerRow() const { return Stride; }

  const uint64_t *rowData(uint32_t R) const {
    assert(R < NumRows);
    return Words + static_cast<size_t>(R) * Stride;
  }
  uint64_t *rowData(uint32_t R) {
    assert(R < NumRows);
    return Words + static_cast<size_t>(R) * Stride;
  }
  std::span<const uint64_t> row(uint32_t R) const {
    return {rowData(R), Stride};
  }

  bool test(uint32_t R, uint32_t C) const {
    assert(C < NumCols);
    return (rowData(R)[C >> 6] >> (C & 63)) & 1;
  }

  /// Sets bit (R, C); returns true iff it was previously clear.
  bool set(uint32_t R, uint32_t C) {
    assert(C < NumCols);
    uint64_t *W = rowData(R) + (C >> 6);
    uint64_t Mask = uint64_t{1} << (C & 63);
    bool Changed = !(*W & Mask);
    *W |= Mask;
    return Changed;
  }

  /// Dst |= Src (row-wise); returns true iff Dst changed.
  bool orRowInto(uint32_t Dst, uint32_t Src) {
    if (Dst == Src)
      return false;
    return orInto(rowData(Dst), rowData(Src), Stride);
  }

  /// Dst |= Src where Src is a row of \p Other (same column universe).
  bool orRowFrom(uint32_t Dst, const BitMatrix &Other, uint32_t Src) {
    assert(Stride == Other.Stride);
    return orInto(rowData(Dst), Other.rowData(Src), Stride);
  }

  /// Word-wise Dst |= Src over \p N words; returns true iff Dst changed.
  static bool orInto(uint64_t *Dst, const uint64_t *Src, uint32_t N) {
    uint64_t Diff = 0;
    for (uint32_t I = 0; I < N; ++I) {
      uint64_t Old = Dst[I];
      uint64_t New = Old | Src[I];
      Diff |= Old ^ New;
      Dst[I] = New;
    }
    return Diff != 0;
  }

  /// Number of set bits in row \p R.
  uint32_t countRow(uint32_t R) const {
    const uint64_t *W = rowData(R);
    uint32_t N = 0;
    for (uint32_t I = 0; I < Stride; ++I)
      N += static_cast<uint32_t>(std::popcount(W[I]));
    return N;
  }

  bool rowEmpty(uint32_t R) const {
    const uint64_t *W = rowData(R);
    for (uint32_t I = 0; I < Stride; ++I)
      if (W[I])
        return false;
    return true;
  }

  bool rowEquals(uint32_t R, const BitMatrix &Other, uint32_t S) const {
    assert(Stride == Other.Stride);
    return std::memcmp(rowData(R), Other.rowData(S),
                       Stride * sizeof(uint64_t)) == 0;
  }

  /// Calls \p Fn(col) for each set bit of row \p R in ascending column
  /// order, which keeps diagnostics built from the rows deterministic.
  template <typename FnT> void forEachSetBit(uint32_t R, FnT &&Fn) const {
    const uint64_t *Row = rowData(R);
    for (uint32_t I = 0; I < Stride; ++I) {
      uint64_t W = Row[I];
      while (W) {
        uint32_t Bit = static_cast<uint32_t>(std::countr_zero(W));
        Fn(I * 64 + Bit);
        W &= W - 1;
      }
    }
  }
};

/// A single cache-line-aligned bit row over a fixed column universe; the
/// one-row convenience wrapper used for scratch FIRST-of-sequence
/// accumulation.
class BitRow {
  BitMatrix M;

public:
  BitRow() = default;
  explicit BitRow(uint32_t Cols) : M(1, Cols) {}

  uint32_t cols() const { return M.cols(); }
  bool test(uint32_t C) const { return M.test(0, C); }
  bool set(uint32_t C) { return M.set(0, C); }
  void clear() {
    std::memset(M.rowData(0), 0, M.wordsPerRow() * sizeof(uint64_t));
  }
  bool orFrom(const BitMatrix &Other, uint32_t Src) {
    return M.orRowFrom(0, Other, Src);
  }
  uint32_t count() const { return M.countRow(0); }
  template <typename FnT> void forEachSetBit(FnT &&Fn) const {
    M.forEachSetBit(0, std::forward<FnT>(Fn));
  }
};

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_BITMATRIX_H
