-- oracle repro: the refusal ladder on NOT IN over an empty correlated
-- inner.  The rewrite cells refuse (SUPPLY.QUAN holds a NULL, so the
-- guarded NOT IN -> COUNT rewrite declines), so batched and the Auto
-- ladder are the only optimizing cells that answer: part 2's substituted inner is empty,
-- and NOT IN over the empty set is vacuously true, while part 1's inner
-- contains a NULL QUAN, whose three-valued NOT IN must reject the row —
-- per-batch literal substitution has to preserve both edges exactly as
-- nested iteration does.
-- table PARTS (PNUM:int,QOH:int)
-- row 1,4
-- row 2,4
-- table SUPPLY (PNUM:int,QUAN:int,SHIPDATE:date)
-- row 1,,1979-06-01
-- row 1,3,1980-02-01
SELECT PNUM FROM PARTS
WHERE QOH NOT IN (SELECT QUAN FROM SUPPLY
                  WHERE SUPPLY.PNUM = PARTS.PNUM)
