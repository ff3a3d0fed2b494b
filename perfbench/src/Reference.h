//===- Reference.h - Naive double-precision reference layers ----*- C++ -*-===//
///
/// \file
/// Independent reference implementations the benchmark checks the
/// program's outputs against: straight-line double-precision GCN (forward
/// output and weight gradient under dL/dOut = 1) and GAT forward, over the
/// self-loop-augmented graph built here from the raw adjacency rather than
/// by Graph::withSelfLoops.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_PERFBENCH_REFERENCE_H
#define GRANII_PERFBENCH_REFERENCE_H

#include "graph/Graph.h"
#include "tensor/DenseMatrix.h"

#include <string>
#include <vector>

namespace perfbench {

/// Relative tolerance of every reference comparison: an element passes
/// when |got - want| <= Tol * (|want| + rms(want)).
constexpr double ReferenceTolerance = 1e-3;

struct RefMatrix {
  int64_t Rows = 0, Cols = 0;
  std::vector<double> V;
  double at(int64_t R, int64_t C) const {
    return V[static_cast<size_t>(R * Cols + C)];
  }
};

/// relu(D^-1/2 (A+I) D^-1/2 H W) and dL/dW for L = sum(output).
void referenceGcn(const granii::Graph &G, const granii::DenseMatrix &H,
                  const granii::DenseMatrix &W, RefMatrix &Out,
                  RefMatrix &GradW);

/// relu(softmax_row(leaky_relu(theta.asrc + theta.adst^T, 0.2)) theta),
/// theta = H W, over the pattern of A+I.
void referenceGat(const granii::Graph &G, const granii::DenseMatrix &H,
                  const granii::DenseMatrix &W, const std::vector<float> &ASrc,
                  const std::vector<float> &ADst, RefMatrix &Out);

/// Compares \p Got against \p Want with ReferenceTolerance. \returns "" on
/// a match, else a description of the worst element.
std::string compareToReference(const granii::DenseMatrix &Got,
                               const RefMatrix &Want, const std::string &What);

/// True when the two matrices have identical shape and bit patterns.
bool bitwiseEqual(const granii::DenseMatrix &A, const granii::DenseMatrix &B);
bool bitwiseEqual(const std::vector<float> &A, const granii::DenseMatrix &B);

} // namespace perfbench

#endif // GRANII_PERFBENCH_REFERENCE_H
