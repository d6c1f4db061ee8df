-- oracle repro: one aggregate repeated in a grouped select list.  Two
-- MAX_QUAN columns out of one GROUP BY made the projection ambiguous
-- under the transformed program and Auto; each group's MAX is now
-- computed once and read twice.
-- table SUPPLY (PNUM:int,QUAN:int,SHIPDATE:date)
-- row 1,5,1979-06-01
-- row 1,,1980-02-01
-- row 2,3,1979-01-01
-- row ,4,1979-03-01
SELECT PNUM, MAX(QUAN), MAX(QUAN) FROM SUPPLY GROUP BY PNUM
