; Shrunk from fuzz seed 1076: an IF whose predicate is an IF with
; non-duplicable arms is distributed through F-THUNK/G-THUNK local
; functions (META-DISTRIBUTE-IF).  The float arithmetic gives the frame
; pdl slots, which forbid tail calls out of it, and codegen refused the
; thunk calls as "JUMP local function ... called from a non-tail
; context" although a JUMP is a goto that stays in the frame.
; The trailing call runs the compiled thunk code.
(DEFUN F1 (P3 P4 P5) (DECLARE (FLONUM P3 P5) P4)
 (IF (IF P4 () 0) (+ -1.75 P4 (* 19.0 P5 -24.25)) 20.75))
(F1 1.0 5 2.0)
