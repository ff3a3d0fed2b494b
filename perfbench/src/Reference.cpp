//===- Reference.cpp - Naive double-precision reference layers ------------===//

#include "Reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace granii;
using namespace perfbench;

namespace {

/// Neighbor lists of A + I: every stored neighbor plus the node itself.
struct SelfLoopAdj {
  std::vector<int64_t> Offsets;
  std::vector<int32_t> Cols;
};

SelfLoopAdj selfLoopAdjacency(const Graph &G) {
  const CsrMatrix &A = G.adjacency();
  SelfLoopAdj Out;
  Out.Offsets.push_back(0);
  for (int64_t R = 0; R < A.rows(); ++R) {
    bool HasSelf = false;
    for (int64_t K = A.rowOffsets()[static_cast<size_t>(R)];
         K < A.rowOffsets()[static_cast<size_t>(R) + 1]; ++K) {
      int32_t C = A.colIndices()[static_cast<size_t>(K)];
      HasSelf |= C == R;
      Out.Cols.push_back(C);
    }
    if (!HasSelf)
      Out.Cols.push_back(static_cast<int32_t>(R));
    Out.Offsets.push_back(static_cast<int64_t>(Out.Cols.size()));
  }
  return Out;
}

RefMatrix matmul(const DenseMatrix &H, const DenseMatrix &W) {
  RefMatrix Out{H.rows(), W.cols(),
                std::vector<double>(static_cast<size_t>(H.rows() * W.cols()))};
  for (int64_t R = 0; R < H.rows(); ++R)
    for (int64_t K = 0; K < H.cols(); ++K) {
      double A = H.at(R, K);
      for (int64_t C = 0; C < W.cols(); ++C)
        Out.V[static_cast<size_t>(R * Out.Cols + C)] += A * W.at(K, C);
    }
  return Out;
}

} // namespace

void perfbench::referenceGcn(const Graph &G, const DenseMatrix &H,
                             const DenseMatrix &W, RefMatrix &Out,
                             RefMatrix &GradW) {
  SelfLoopAdj Adj = selfLoopAdjacency(G);
  int64_t N = H.rows(), KIn = H.cols(), KOut = W.cols();
  std::vector<double> D(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    D[static_cast<size_t>(I)] =
        1.0 / std::sqrt(static_cast<double>(Adj.Offsets[I + 1] - Adj.Offsets[I]));

  // Agg = (A+I) D H, the normalized neighborhood sum before the weight.
  std::vector<double> Agg(static_cast<size_t>(N * KIn));
  for (int64_t I = 0; I < N; ++I)
    for (int64_t E = Adj.Offsets[I]; E < Adj.Offsets[I + 1]; ++E) {
      int32_t J = Adj.Cols[static_cast<size_t>(E)];
      double Dj = D[static_cast<size_t>(J)];
      for (int64_t K = 0; K < KIn; ++K)
        Agg[static_cast<size_t>(I * KIn + K)] += Dj * H.at(J, K);
    }

  Out = RefMatrix{N, KOut, std::vector<double>(static_cast<size_t>(N * KOut))};
  GradW = RefMatrix{KIn, KOut,
                    std::vector<double>(static_cast<size_t>(KIn * KOut))};
  std::vector<double> Z(static_cast<size_t>(KOut));
  for (int64_t I = 0; I < N; ++I) {
    std::fill(Z.begin(), Z.end(), 0.0);
    for (int64_t K = 0; K < KIn; ++K) {
      double A = Agg[static_cast<size_t>(I * KIn + K)];
      for (int64_t C = 0; C < KOut; ++C)
        Z[static_cast<size_t>(C)] += A * W.at(K, C);
    }
    double Di = D[static_cast<size_t>(I)];
    for (int64_t C = 0; C < KOut; ++C) {
      double Pre = Di * Z[static_cast<size_t>(C)];
      Out.V[static_cast<size_t>(I * KOut + C)] = std::max(Pre, 0.0);
      if (Pre <= 0.0)
        continue;
      // dL/dW[k][c] = sum_i Agg[i][k] * d_i * relu'(pre[i][c]).
      for (int64_t K = 0; K < KIn; ++K)
        GradW.V[static_cast<size_t>(K * KOut + C)] +=
            Agg[static_cast<size_t>(I * KIn + K)] * Di;
    }
  }
}

void perfbench::referenceGat(const Graph &G, const DenseMatrix &H,
                             const DenseMatrix &W,
                             const std::vector<float> &ASrc,
                             const std::vector<float> &ADst, RefMatrix &Out) {
  SelfLoopAdj Adj = selfLoopAdjacency(G);
  RefMatrix Theta = matmul(H, W);
  int64_t N = Theta.Rows, K = Theta.Cols;
  std::vector<double> Src(static_cast<size_t>(N)), Dst(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    for (int64_t C = 0; C < K; ++C) {
      Src[static_cast<size_t>(I)] += Theta.at(I, C) * ASrc[static_cast<size_t>(C)];
      Dst[static_cast<size_t>(I)] += Theta.at(I, C) * ADst[static_cast<size_t>(C)];
    }
  Out = RefMatrix{N, K, std::vector<double>(static_cast<size_t>(N * K))};
  std::vector<double> Logit;
  for (int64_t I = 0; I < N; ++I) {
    int64_t Begin = Adj.Offsets[I], End = Adj.Offsets[I + 1];
    Logit.assign(static_cast<size_t>(End - Begin), 0.0);
    double Max = -INFINITY;
    for (int64_t E = Begin; E < End; ++E) {
      double L = Src[static_cast<size_t>(I)] +
                 Dst[static_cast<size_t>(Adj.Cols[static_cast<size_t>(E)])];
      L = L > 0.0 ? L : 0.2 * L;
      Logit[static_cast<size_t>(E - Begin)] = L;
      Max = std::max(Max, L);
    }
    double Sum = 0.0;
    for (double &L : Logit)
      Sum += (L = std::exp(L - Max));
    for (int64_t E = Begin; E < End; ++E) {
      double Alpha = Logit[static_cast<size_t>(E - Begin)] / Sum;
      int32_t J = Adj.Cols[static_cast<size_t>(E)];
      for (int64_t C = 0; C < K; ++C)
        Out.V[static_cast<size_t>(I * K + C)] += Alpha * Theta.at(J, C);
    }
    for (int64_t C = 0; C < K; ++C)
      Out.V[static_cast<size_t>(I * K + C)] =
          std::max(Out.V[static_cast<size_t>(I * K + C)], 0.0);
  }
}

std::string perfbench::compareToReference(const DenseMatrix &Got,
                                          const RefMatrix &Want,
                                          const std::string &What) {
  if (Got.rows() != Want.Rows || Got.cols() != Want.Cols)
    return What + ": shape " + std::to_string(Got.rows()) + "x" +
           std::to_string(Got.cols()) + " != reference " +
           std::to_string(Want.Rows) + "x" + std::to_string(Want.Cols);
  double Sq = 0.0;
  for (double V : Want.V)
    Sq += V * V;
  double Rms = Want.V.empty() ? 0.0 : std::sqrt(Sq / Want.V.size());
  double Worst = 0.0;
  int64_t WorstAt = -1;
  for (int64_t R = 0; R < Want.Rows; ++R)
    for (int64_t C = 0; C < Want.Cols; ++C) {
      double W = Want.at(R, C);
      double Excess = std::abs(Got.at(R, C) - W) /
                      (ReferenceTolerance * (std::abs(W) + Rms) + 1e-30);
      if (!(Excess <= 1.0) && !(Excess <= Worst)) {
        Worst = std::isnan(Excess) ? INFINITY : Excess;
        WorstAt = R * Want.Cols + C;
      }
    }
  if (WorstAt < 0)
    return "";
  int64_t R = WorstAt / Want.Cols, C = WorstAt % Want.Cols;
  return What + ": element (" + std::to_string(R) + "," + std::to_string(C) +
         ") = " + std::to_string(Got.at(R, C)) + ", reference " +
         std::to_string(Want.at(R, C));
}

bool perfbench::bitwiseEqual(const DenseMatrix &A, const DenseMatrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.size()) * sizeof(float)) == 0;
}

bool perfbench::bitwiseEqual(const std::vector<float> &A,
                             const DenseMatrix &B) {
  return static_cast<int64_t>(A.size()) == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}
