//===- PlanSerialize.cpp - Composition plan (de)serialization ---------------===//

#include "assoc/PlanSerialize.h"

#include "support/Error.h"
#include "support/Str.h"

#include <cctype>
#include <charconv>
#include <cstdio>

using namespace granii;

namespace {

const std::vector<StepOp> &allStepOps() {
  static const std::vector<StepOp> Ops = {
      StepOp::Gemm,          StepOp::SpmmWeighted,  StepOp::SpmmUnweighted,
      StepOp::SddmmScaleRow, StepOp::SddmmScaleCol, StepOp::SddmmScaleBoth,
      StepOp::RowBcast,      StepOp::ColBcast,      StepOp::DiagDiag,
      StepOp::AddDense,      StepOp::ScaleDense,    StepOp::Relu,
      StepOp::DegreeOffsets, StepOp::DegreeBinning, StepOp::InvSqrtVec,
      StepOp::InvVec,        StepOp::AttnGemv,      StepOp::EdgeLogits,
      StepOp::EdgeLeakyRelu, StepOp::EdgeSoftmax};
  return Ops;
}

const char *valueKindName(PlanValueKind Kind) {
  switch (Kind) {
  case PlanValueKind::Dense:
    return "dense";
  case PlanValueKind::Sparse:
    return "sparse";
  case PlanValueKind::Diag:
    return "diag";
  case PlanValueKind::NodeVec:
    return "nodevec";
  }
  graniiUnreachable("unknown plan value kind");
}

const char *roleName(const std::optional<LeafRole> &Role) {
  if (!Role)
    return "-";
  switch (*Role) {
  case LeafRole::Adjacency:
    return "adjacency";
  case LeafRole::DegreeNorm:
    return "degnorm";
  case LeafRole::DegreeInv:
    return "deginv";
  case LeafRole::Features:
    return "features";
  case LeafRole::Weight:
    return "weight";
  case LeafRole::AttnSrcVec:
    return "attnsrc";
  case LeafRole::AttnDstVec:
    return "attndst";
  }
  graniiUnreachable("unknown leaf role");
}

std::optional<std::optional<LeafRole>> parseRole(const std::string &Name) {
  if (Name == "-")
    return std::optional<LeafRole>{};
  for (LeafRole Role :
       {LeafRole::Adjacency, LeafRole::DegreeNorm, LeafRole::DegreeInv,
        LeafRole::Features, LeafRole::Weight, LeafRole::AttnSrcVec,
        LeafRole::AttnDstVec})
    if (roleName(Role) == Name)
      return std::optional<LeafRole>{Role};
  return std::nullopt;
}

std::optional<PlanValueKind> parseValueKind(const std::string &Name) {
  for (PlanValueKind Kind : {PlanValueKind::Dense, PlanValueKind::Sparse,
                             PlanValueKind::Diag, PlanValueKind::NodeVec})
    if (valueKindName(Kind) == Name)
      return Kind;
  return std::nullopt;
}

std::optional<StepOp> parseStepOp(const std::string &Name) {
  for (StepOp Op : allStepOps())
    if (stepOpName(Op) == Name)
      return Op;
  return std::nullopt;
}

/// Checked integer parse for untrusted plan files: the whole field must be
/// an optionally-signed decimal integer that fits \p T. Unlike the
/// std::stoi family this cannot throw — out-of-range values (the case a
/// digits-only pre-check misses) come back as std::nullopt like any other
/// malformed field.
template <typename T>
std::optional<T> parseCheckedInt(const std::string &Text) {
  T Value{};
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(),
                                   Value);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size())
    return std::nullopt;
  return Value;
}

std::optional<SymDim> parseDim(const std::string &Text) {
  if (Text == "N")
    return SymDim::n();
  if (Text == "Kin")
    return SymDim::kIn();
  if (Text == "Kout")
    return SymDim::kOut();
  if (Text == "1")
    return SymDim::one();
  // Constants are unsigned numeric literals; a checked parse also rejects
  // digit strings too large for the dimension type.
  if (!Text.empty() && Text[0] == '-')
    return std::nullopt;
  auto Value = parseCheckedInt<int64_t>(Text);
  if (!Value)
    return std::nullopt;
  return SymDim::constant(*Value);
}

/// Parse context threaded through the record handlers so every failure can
/// say which source, line, and field was malformed.
struct ParseCursor {
  std::string SourceName;
  int64_t LineNo = 0;
};

std::optional<std::vector<CompositionPlan>>
failParse(std::string *ErrorMessage, const ParseCursor &Cursor,
          const std::string &Message) {
  if (ErrorMessage)
    *ErrorMessage = Cursor.SourceName + ":" + std::to_string(Cursor.LineNo) +
                    ": " + Message;
  return std::nullopt;
}

} // namespace

std::string granii::serializePlan(const CompositionPlan &Plan) {
  char Buffer[256];
  std::string Out = "plan " + Plan.Name + " " +
                    std::to_string(Plan.ViableGe) + " " +
                    std::to_string(Plan.ViableLt) + "\n";
  for (const PlanValue &Val : Plan.Values) {
    Out += std::string("value ") + valueKindName(Val.Kind) + " " +
           Val.Shape.Rows.toString() + " " + Val.Shape.Cols.toString() + " " +
           std::to_string(Val.SparseWeighted) + " " +
           std::to_string(Val.GraphOnly) + " " + roleName(Val.InputRole) +
           " " + (Val.DebugName.empty() ? "_" : Val.DebugName) + "\n";
  }
  for (const PlanStep &Step : Plan.Steps) {
    std::snprintf(Buffer, sizeof(Buffer), "step %s %d %a %d",
                  stepOpName(Step.Op).c_str(), Step.Result, Step.Param,
                  Step.Setup ? 1 : 0);
    Out += Buffer;
    for (int Operand : Step.Operands)
      Out += " " + std::to_string(Operand);
    Out += "\n";
  }
  Out += "output " + std::to_string(Plan.OutputValue) + "\nend\n";
  return Out;
}

std::string
granii::serializePlans(const std::vector<CompositionPlan> &Plans) {
  std::string Out;
  for (const CompositionPlan &Plan : Plans)
    Out += serializePlan(Plan);
  return Out;
}

std::optional<std::vector<CompositionPlan>>
granii::deserializePlans(const std::string &Text, std::string *ErrorMessage,
                         const std::string &SourceName) {
  std::vector<CompositionPlan> Plans;
  CompositionPlan Current;
  bool InPlan = false;
  ParseCursor Cursor{SourceName, 0};

  for (const std::string &RawLine : splitString(Text, '\n')) {
    ++Cursor.LineNo;
    std::string_view Trimmed = trimString(RawLine);
    if (Trimmed.empty())
      continue;
    std::vector<std::string> Fields;
    for (const std::string &Field : splitString(Trimmed, ' '))
      if (!Field.empty())
        Fields.push_back(Field);

    const std::string &Tag = Fields[0];
    if (Tag == "plan") {
      if (InPlan || Fields.size() != 4)
        return failParse(ErrorMessage, Cursor, "malformed plan header");
      Current = CompositionPlan();
      Current.Name = Fields[1];
      Current.ViableGe = Fields[2] == "1";
      Current.ViableLt = Fields[3] == "1";
      InPlan = true;
      continue;
    }
    if (!InPlan)
      return failParse(ErrorMessage, Cursor, "record outside a plan: " + Tag);

    if (Tag == "value") {
      if (Fields.size() != 8)
        return failParse(ErrorMessage, Cursor, "malformed value record");
      PlanValue Val;
      auto Kind = parseValueKind(Fields[1]);
      auto Rows = parseDim(Fields[2]);
      auto Cols = parseDim(Fields[3]);
      auto Role = parseRole(Fields[6]);
      if (!Kind || !Rows || !Cols || !Role)
        return failParse(ErrorMessage, Cursor,
                         "bad value field in: " + RawLine);
      Val.Kind = *Kind;
      Val.Shape = {*Rows, *Cols};
      Val.SparseWeighted = Fields[4] == "1";
      Val.GraphOnly = Fields[5] == "1";
      Val.InputRole = *Role;
      Val.DebugName = Fields[7] == "_" ? "" : Fields[7];
      Current.Values.push_back(std::move(Val));
      continue;
    }
    if (Tag == "step") {
      if (Fields.size() < 5)
        return failParse(ErrorMessage, Cursor, "malformed step record");
      PlanStep Step;
      auto Op = parseStepOp(Fields[1]);
      if (!Op)
        return failParse(ErrorMessage, Cursor, "unknown step op: " + Fields[1]);
      Step.Op = *Op;
      auto Result = parseCheckedInt<int>(Fields[2]);
      if (!Result)
        return failParse(ErrorMessage, Cursor,
                         "bad step result id: " + Fields[2]);
      Step.Result = *Result;
      if (!parseDouble(Fields[3], Step.Param))
        return failParse(ErrorMessage, Cursor,
                         "bad step parameter: " + Fields[3]);
      Step.Setup = Fields[4] == "1";
      for (size_t I = 5; I < Fields.size(); ++I) {
        auto Operand = parseCheckedInt<int>(Fields[I]);
        if (!Operand)
          return failParse(ErrorMessage, Cursor,
                           "bad operand id: " + Fields[I]);
        Step.Operands.push_back(*Operand);
      }
      Current.Steps.push_back(std::move(Step));
      continue;
    }
    if (Tag == "output") {
      auto Output = Fields.size() == 2 ? parseCheckedInt<int>(Fields[1])
                                       : std::nullopt;
      if (!Output)
        return failParse(ErrorMessage, Cursor, "malformed output record");
      Current.OutputValue = *Output;
      continue;
    }
    if (Tag == "end") {
      if (Current.OutputValue < 0 ||
          static_cast<size_t>(Current.OutputValue) >= Current.Values.size())
        return failParse(ErrorMessage, Cursor,
                         "plan ended without a valid output");
      // Recoverable version of CompositionPlan::verify(): untrusted files
      // must not abort the process.
      std::vector<bool> Defined(Current.Values.size(), false);
      for (size_t V = 0; V < Current.Values.size(); ++V)
        Defined[V] = Current.Values[V].InputRole.has_value();
      for (const PlanStep &Step : Current.Steps) {
        for (int Id : Step.Operands)
          if (Id < 0 || static_cast<size_t>(Id) >= Current.Values.size() ||
              !Defined[static_cast<size_t>(Id)])
            return failParse(ErrorMessage, Cursor,
                             "plan uses an undefined value");
        if (Step.Result < 0 ||
            static_cast<size_t>(Step.Result) >= Current.Values.size() ||
            Defined[static_cast<size_t>(Step.Result)])
          return failParse(ErrorMessage, Cursor,
                           "plan defines a value twice");
        Defined[static_cast<size_t>(Step.Result)] = true;
      }
      if (!Defined[static_cast<size_t>(Current.OutputValue)])
        return failParse(ErrorMessage, Cursor,
                         "plan output is never defined");
      Plans.push_back(std::move(Current));
      Current = CompositionPlan();
      InPlan = false;
      continue;
    }
    return failParse(ErrorMessage, Cursor, "unknown record tag: " + Tag);
  }
  if (InPlan)
    return failParse(ErrorMessage, Cursor, "unterminated plan record");
  return Plans;
}
