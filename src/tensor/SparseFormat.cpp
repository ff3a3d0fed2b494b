//===- SparseFormat.cpp - Sparse storage format tags -----------------------===//

#include "tensor/SparseFormat.h"

using namespace granii;

const char *granii::sparseFormatName(SparseFormat F) {
  return F == SparseFormat::Auto ? "auto" : "csr";
}

std::optional<SparseFormat> granii::parseSparseFormat(const std::string &Name) {
  if (Name == "csr")
    return SparseFormat::Csr;
  if (Name == "auto")
    return SparseFormat::Auto;
  return std::nullopt;
}

const std::vector<SparseFormat> &granii::forwardSparseFormats() {
  static const std::vector<SparseFormat> Formats = {SparseFormat::Csr};
  return Formats;
}
