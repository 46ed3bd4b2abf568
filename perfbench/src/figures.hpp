// Val sources of the paper's figure programs, shared by paper_figs and
// serve_wire.  Each function returns the program at manifest extent m.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

inline std::string withM(std::int64_t m, const char* body) {
  return "const m = " + std::to_string(m) + "\n" + body;
}

inline const char* const kFig2 = R"(
function fig2(A, B: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct (A[i]*B[i] + 2.) * (A[i]*B[i] - 3.)
  endall
endfun
)";

inline const char* const kFig3 = R"(
function fig3(B, C: array[real] [0, m+1]; A2: array[real] [1, m]
              returns array[real])
  let
    A : array[real] := forall i in [0, m+1]
        P : real := if (i = 0) | (i = m+1) then C[i]
                    else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
      construct B[i] * (P * P)
      endall;
    X : array[real] := for i : integer := 1;
        T : array[real] := [0: 0]
      do let P : real := A2[i]*T[i-1] + A[i]
         in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
            else T endif
         endlet
      endfor
  in X endlet
endfun
)";

inline const char* const kFig4 = R"(
function sel(C: array[real] [0, m+1] returns array[real])
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall
endfun
)";

inline const char* const kFig5 = R"(
function cond(A, B, C: array[real] [1, m] returns array[real])
  forall i in [1, m]
  construct if C[i] > 0. then -(A[i] + B[i])
            else 5. * (A[i] * B[i] + 2.) endif
  endall
endfun
)";

inline const char* const kFig6 = R"(
function ex1(B, C: array[real] [0, m+1] returns array[real])
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i] * (P * P)
  endall
endfun
)";

/// Example 2 (first-order linear recurrence), mapped by Todd's scheme for
/// Fig. 7 and by the companion scheme for Fig. 8.
inline const char* const kRecurrence = R"(
function ex2(A, B: array[real] [1, m] returns array[real])
  for i : integer := 1; T : array[real] := [0: 0]
  do let P : real := A[i]*T[i-1] + B[i]
     in if i < m + 1 then iter T := T[i: P]; i := i + 1 enditer
        else T endif
     endlet
  endfor
endfun
)";

}  // namespace perfbench
