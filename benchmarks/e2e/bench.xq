module namespace bn = "urn:xrpc-e2e-bench";

(: Smallest possible call: nothing in, nothing out. :)
declare function bn:void() { () };

(: Request-heavy: a large node sequence in, one integer out. :)
declare function bn:sink($payload as node()*) as xs:integer
{ count($payload) };

(: Response-heavy: stored nodes out, no element construction. :)
declare function bn:rows($n as xs:integer) as node()*
{ subsequence(doc("rows.xml")/rows/row, 1, $n) };

(: The write a distributed transaction commits. :)
declare updating function bn:set-balance($v as xs:string)
{ replace value of node doc("account.xml")/account/balance with $v };
