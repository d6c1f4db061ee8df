-- oracle repro: one aggregate repeated in the select list.  The planner
-- made one aggregate per select item, both named COUNT_QUAN, so the
-- projection's agg.COUNT_QUAN was ambiguous and the transformed program
-- crashed (Auto with it).  A block's aggregates are now computed once
-- and read twice, as nested iteration and batched bindings read them.
-- table SUPPLY (PNUM:int,QUAN:int,SHIPDATE:date)
-- row 1,5,1979-06-01
-- row 1,,1980-02-01
-- row 2,3,1979-01-01
SELECT COUNT(QUAN), COUNT(QUAN) FROM SUPPLY
