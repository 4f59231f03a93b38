// Text syntax for GEL(Ω,Θ) expressions — the "query language" of the
// paper made concrete. The grammar matches Expr::ToString, so parseable
// expressions round-trip:
//
//   expr   := atom | const | apply | aggregate
//   atom   := 'lab' INT '(' var ')'               label component
//           | 'E' '(' var ',' var ')'             edge relation
//           | '1[' var ('=' | '!=') var ']'       equality indicator
//   const  := '[' NUM (',' NUM)* ']'
//   apply  := FN '(' expr (',' expr)* ')'
//   aggregate :=
//        'agg' '[' AGG ']' '_' '{' var (',' var)* '}'
//              '(' expr ('|' expr)? ')'
//   var    := 'x' INT
//   FN     := relu | sigmoid | tanh | sign | identity | clipped_relu
//           | add | mul | concat | scale[NUM] | project[INT,INT]
//   AGG    := sum | mean | max | count
//
// Dimensions are inferred bottom-up; functions requiring weight matrices
// (linear, mlp) have no text form and must be built through the API.
#ifndef GELC_CORE_PARSER_H_
#define GELC_CORE_PARSER_H_

#include <string>

#include "base/status.h"
#include "core/expr.h"

namespace gelc {

/// Parses the textual GEL syntax above. Errors carry the offending
/// position and token. More than 512 nested function applications or
/// aggregates is InvalidArgument.
Result<ExprPtr> ParseExpr(const std::string& text);

}  // namespace gelc

#endif  // GELC_CORE_PARSER_H_
