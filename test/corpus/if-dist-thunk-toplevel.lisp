; Shrunk from fuzz seed 1461: the same META-DISTRIBUTE-IF thunks at top
; level, in a frame with a pdl slot for the float product; codegen
; refused the JUMP to F-THUNK as a non-tail call.
(IF (* 5.75 (MAX -13.5 25.25) 7) -99 (IF (OR (>= 24 -5) -31.25 ()) T RED))
