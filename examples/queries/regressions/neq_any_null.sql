-- x != ANY over NULLs on both sides.  0 < COUNT(... AND QOH != QUAN) is
-- true exactly when some item makes QOH != QUAN true, which is when
-- QOH != ANY is true; where ANY is false or unknown the COUNT form is
-- false, and WHERE rejects all three alike.  So the rewrite needs no
-- nullability guard: part 3 qualifies (6 != 4), part 10 (NULL QOH) and
-- part 8 (0 != ANY {NULL, 0} is unknown) do not, under every strategy.
-- table PARTS (PNUM:int,QOH:int)
-- row 3,6
-- row 10,
-- row 8,0
-- table SUPPLY (PNUM:int,QUAN:int,SHIPDATE:date)
-- row 3,4,1979-06-01
-- row 3,,1979-06-01
-- row 10,1,1980-02-01
-- row 8,,1980-02-01
-- row 8,0,1980-02-01
SELECT PNUM FROM PARTS
WHERE QOH != ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)
