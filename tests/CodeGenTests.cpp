//===- CodeGenTests.cpp - Tests for dispatch codegen and DOT export ---------===//

#include "assoc/DotExport.h"
#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "models/Models.h"
#include "runtime/CodeGen.h"

#include <gtest/gtest.h>

using namespace granii;

namespace {

std::vector<CompositionPlan> gcnPromoted() {
  GnnModel M = makeModel(ModelKind::GCN);
  return pruneCompositions(enumerateCompositions(M.Root));
}

DimBinding referenceBinding() {
  DimBinding B;
  B.N = 4096;
  B.E = 65536;
  B.KIn = 64;
  B.KOut = 64;
  return B;
}

/// Emitted code of \p Plan with its arena planned at the reference binding.
std::string planCode(const CompositionPlan &Plan, const std::string &Name) {
  BufferPlan Buffers(Plan, referenceBinding(), /*Training=*/false);
  return generatePlanCode(Plan, Name, Buffers);
}

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0, Pos = 0;
  while ((Pos = Haystack.find(Needle, Pos)) != std::string::npos) {
    ++Count;
    Pos += Needle.size();
  }
  return Count;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan code generation
//===----------------------------------------------------------------------===//

TEST(CodeGen, PlanCodeSeparatesSetup) {
  auto Plans = gcnPromoted();
  std::string Code = planCode(Plans[0], "gcn_c0");
  // Degree + rsqrt are graph-only: they belong to the _setup function.
  EXPECT_NE(Code.find("gcn_c0_setup(const Inputs &In, gcn_c0_Workspace &W)"),
            std::string::npos);
  size_t SetupPos = Code.find("_setup");
  size_t DegreePos = Code.find("degreeFromOffsets");
  size_t MainPos = Code.find("DenseMatrix &gcn_c0(const Inputs &In");
  ASSERT_NE(DegreePos, std::string::npos);
  ASSERT_NE(MainPos, std::string::npos);
  EXPECT_LT(SetupPos, DegreePos);
  EXPECT_LT(DegreePos, MainPos); // Setup body precedes the main function.
}

TEST(CodeGen, PlanCodeReturnsOutputValue) {
  auto Plans = gcnPromoted();
  for (const CompositionPlan &Plan : Plans) {
    BufferPlan Buffers(Plan, referenceBinding(), /*Training=*/false);
    std::string Code = generatePlanCode(Plan, "f", Buffers);
    int Slot = Buffers.values()[static_cast<size_t>(Plan.OutputValue)].Slot;
    EXPECT_NE(Code.find("return W.s" + std::to_string(Slot) + ";"),
              std::string::npos);
  }
}

TEST(CodeGen, PlanCodeUsesKernelApiNames) {
  auto Plans = gcnPromoted();
  bool SawSpmm = false, SawScaleBoth = false;
  for (const CompositionPlan &Plan : Plans) {
    std::string Code = planCode(Plan, "f");
    SawSpmm |= Code.find("kernels::spmmInto(") != std::string::npos;
    SawScaleBoth |=
        Code.find("kernels::scaleSparseBothInto(") != std::string::npos;
  }
  EXPECT_TRUE(SawSpmm);
  EXPECT_TRUE(SawScaleBoth);
}

TEST(CodeGen, GatAttentionStepsEmitted) {
  GnnModel M = makeModel(ModelKind::GAT);
  auto Plans = pruneCompositions(enumerateCompositions(M.Root));
  std::string Code = planCode(Plans[0], "gat0");
  EXPECT_NE(Code.find("sddmmAddScalars"), std::string::npos);
  EXPECT_NE(Code.find("edgeSoftmax"), std::string::npos);
  EXPECT_NE(Code.find("leakyReluEdges"), std::string::npos);
}

TEST(CodeGen, DispatchSplitsOnEmbeddingSizes) {
  std::string Code =
      generateDispatchCode("gcn", gcnPromoted(), referenceBinding());
  EXPECT_NE(Code.find("if (In.KIn >= In.KOut)"), std::string::npos);
  EXPECT_NE(Code.find("gcn_forward"), std::string::npos);
  // GCN has two candidates per scenario: both branches use cost models.
  EXPECT_EQ(countOccurrences(Code, "featurize(In.Graph)"), 2u);
}

TEST(CodeGen, DispatchEmitsEveryCandidateOnce) {
  auto Promoted = gcnPromoted();
  std::string Code = generateDispatchCode("gcn", Promoted, referenceBinding());
  for (size_t I = 0; I < Promoted.size(); ++I) {
    std::string Fn = "gcn_candidate" + std::to_string(I) + "(const Inputs";
    EXPECT_EQ(countOccurrences(Code, Fn), 1u) << Fn;
  }
}

TEST(CodeGen, SingleCandidateScenarioSkipsCostModels) {
  // GAT's two candidates are both dual-scenario, so build a synthetic case:
  // keep only one Ge-viable plan plus one Lt-viable plan.
  auto Promoted = gcnPromoted();
  std::vector<CompositionPlan> Two;
  for (const CompositionPlan &P : Promoted) {
    if (P.ViableGe && !P.ViableLt && Two.empty())
      Two.push_back(P);
    if (P.ViableLt && !P.ViableGe && Two.size() == 1)
      Two.push_back(P);
  }
  ASSERT_EQ(Two.size(), 2u);
  std::string Code = generateDispatchCode("m", Two, referenceBinding());
  // One candidate per scenario: pure size conditions, no featurization.
  EXPECT_EQ(Code.find("featurize(In.Graph)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Destination-passing (buffer-annotated) code generation
//===----------------------------------------------------------------------===//

TEST(CodeGenBuffers, EmitsWorkspaceStructAndIntoCalls) {
  auto Plans = gcnPromoted();
  BufferPlan Buffers(Plans[0], referenceBinding(), /*Training=*/false);
  std::string Code = generatePlanCode(Plans[0], "gcn_c0", Buffers);

  // A workspace struct with planned byte totals replaces per-call locals.
  EXPECT_NE(Code.find("struct gcn_c0_Workspace {"), std::string::npos);
  EXPECT_NE(Code.find("peak " + std::to_string(Buffers.peakBytes()) + " B"),
            std::string::npos);
  // Calls are the Into forms writing into workspace members, and the
  // function hands back a workspace reference, not a fresh value.
  EXPECT_NE(Code.find("Into("), std::string::npos);
  EXPECT_NE(Code.find(", W.s"), std::string::npos);
  EXPECT_NE(Code.find("DenseMatrix &gcn_c0(const Inputs &In, "
                      "gcn_c0_Workspace &W)"),
            std::string::npos);
  EXPECT_EQ(Code.find("DenseMatrix v"), std::string::npos); // no locals
}

TEST(CodeGenBuffers, ReuseCommentNamesTheDeadValue) {
  auto Plans = gcnPromoted();
  // Find a promoted plan whose buffer plan actually shares a slot.
  bool SawReuse = false;
  for (const CompositionPlan &Plan : Plans) {
    BufferPlan Buffers(Plan, referenceBinding(), /*Training=*/false);
    std::string Code = generatePlanCode(Plan, "f", Buffers);
    if (Code.find("reuses v") != std::string::npos) {
      SawReuse = true;
      EXPECT_NE(Code.find("'s storage (dead after step"), std::string::npos);
    }
  }
  EXPECT_TRUE(SawReuse);
}

TEST(CodeGenBuffers, DispatchThreadsWorkspacesThrough) {
  std::string Code =
      generateDispatchCode("gcn", gcnPromoted(), referenceBinding());
  EXPECT_NE(Code.find("reference binding"), std::string::npos);
  EXPECT_NE(Code.find("static gcn_candidate0_Workspace W0;"),
            std::string::npos);
  EXPECT_NE(Code.find("(In, W0)"), std::string::npos);
  // Candidate bodies precede the dispatcher so the static workspace
  // declarations see complete types.
  EXPECT_LT(Code.find("struct gcn_candidate0_Workspace"),
            Code.find("gcn_forward(const Inputs &In)"));
}

//===----------------------------------------------------------------------===//
// DOT export
//===----------------------------------------------------------------------===//

TEST(DotExport, IRDigraphWellFormed) {
  GnnModel M = makeModel(ModelKind::GCN);
  std::string Dot = exportIRDot(M.Root, "gcn_ir");
  EXPECT_NE(Dot.find("digraph \"gcn_ir\""), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos);     // leaves
  EXPECT_NE(Dot.find("shape=ellipse"), std::string::npos); // operations
  EXPECT_NE(Dot.find("->"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
}

TEST(DotExport, SharedSubDagEmittedOnce) {
  // GAT's Theta (matmul(H, W)) is shared between attention and
  // aggregation; the DOT must contain exactly one matmul(H,W) node pair of
  // H/W leaf boxes.
  GnnModel M = makeModel(ModelKind::GAT);
  std::string Dot = exportIRDot(M.Root, "gat_ir");
  EXPECT_EQ(countOccurrences(Dot, "label=\"H\\n"), 1u);
  EXPECT_EQ(countOccurrences(Dot, "label=\"W\\n"), 1u);
}

TEST(DotExport, PlanDigraphMarksSetupDashed) {
  auto Plans = gcnPromoted();
  std::string Dot = exportPlanDot(Plans[0], "p0");
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("peripheries=2"), std::string::npos); // output node
}

TEST(DotExport, PlanEdgesFollowOperands) {
  auto Plans = gcnPromoted();
  const CompositionPlan &Plan = Plans[0];
  std::string Dot = exportPlanDot(Plan, "p0");
  for (const PlanStep &Step : Plan.Steps)
    for (int Operand : Step.Operands)
      EXPECT_NE(Dot.find("v" + std::to_string(Operand) + " -> v" +
                         std::to_string(Step.Result)),
                std::string::npos);
}
