; PROCLAIM SPECIAL at top level: the only top-level action kind with no
; compiled unit.  The proclamation must reach the world before the
; DEFUNs that read *SCALE* compile, and a warm replay must proclaim it
; again before their units install, so the LET in WITH-SCALE binds
; dynamically and SCALED sees the binding.
(proclaim '(special *scale*))
(setq *scale* 3)
(defun scaled (x) (* x *scale*))
(defun with-scale (s x) (let ((*scale* s)) (scaled x)))
(list (scaled 5) (with-scale 7 5) (scaled 2))
