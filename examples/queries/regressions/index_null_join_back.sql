-- oracle repro: NULL join keys through the NEST-JA2 join-back.  The
-- COUNT-form rewrite joins the outer back to the aggregated temp on
-- PARTS.PNUM <=> TEMP.PNUM — null-safe equality, because the part with
-- a NULL PNUM still has COUNT() = 0 and its QOH = 0 row must survive.
-- A B-tree stores no NULL keys, so routing that join-back through an
-- index probe would silently drop the NULL row; the planner takes the
-- index nested-loop join only for = (Planner.join_step), its IndexScan
-- probe cannot state <=>, and the indexed
-- cells of the oracle matrix must agree with the in-memory oracle here:
-- the answer is {1, NULL}, never just {1}.
-- table PARTS (PNUM:int,QOH:int)
-- row 1,1
-- row ,0
-- table SUPPLY (PNUM:int,QUAN:int,SHIPDATE:date)
-- row 1,5,1979-06-01
SELECT PNUM FROM PARTS
WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)
