;; Generic arithmetic at the fixnum boundaries, -2^30 and 2^30 - 1, and
;; against bignum, ratio and float operands.  The runtime answers + - <
;; <= > >= = zerop (and 1+ / 1-, which compile to + / -) on two fixnums
;; without the numeric tower; a result past either boundary, or any
;; other operand, must fall through to the tower and print exactly what
;; the interpreter prints.
(defun gadd (a b) (+ a b))
(defun gsub (a b) (- a b))
(defun ginc (a) (1+ a))
(defun gdec (a) (1- a))
(defun glss (a b) (< a b))
(defun gleq (a b) (<= a b))
(defun ggtr (a b) (> a b))
(defun ggeq (a b) (>= a b))
(defun gnum= (a b) (= a b))
(defun gzerop (a) (zerop a))
(defun all-ops (a b)
  (list (gadd a b) (gsub a b) (ginc a) (gdec a)
        (glss a b) (gleq a b) (ggtr a b) (ggeq a b) (gnum= a b)
        (gzerop a) (gzerop b)))
;; the edges themselves: one step inside stays a fixnum, one step out
;; becomes a bignum
(list (ginc 1073741822) (ginc 1073741823) (gdec -1073741823) (gdec -1073741824)
      (gadd 1073741823 0) (gadd 1073741823 1) (gadd -1073741824 -1)
      (gadd 1073741823 1073741823) (gadd -1073741824 -1073741824)
      (gsub -1073741824 0) (gsub -1073741824 1) (gsub 1073741823 -1)
      (gsub 1073741823 -1073741824) (gsub -1073741824 1073741823))
(list (all-ops 1073741823 -1073741824) (all-ops -1073741824 1073741823)
      (all-ops 1073741823 1073741823) (all-ops 0 -1073741824) (all-ops 0 0))
;; bignum operands on either side of the edge
(list (all-ops 1073741824 1073741823) (all-ops -1073741825 -1073741824)
      (all-ops 1073741823 1073741824) (all-ops 100000000000000000000 1))
;; ratio operands
(list (all-ops 1/2 1073741823) (all-ops -1073741824 -1/3) (all-ops 7/2 1/2))
;; float operands
(list (all-ops 1.5 1073741823) (all-ops -1073741824 0.5) (all-ops 0.0 -1073741824))
