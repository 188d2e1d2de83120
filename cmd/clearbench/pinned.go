package main

// pinnedDigests are the iteration digests of every workload at the default
// seed (0xC1EA5) in full mode, traced or not. A run at that seed fails when
// its digest differs: some change altered a campaign tally, a sweep row, the
// frontier or a ranking. Update an entry only together with the change that
// deliberately alters those results.
var pinnedDigests = map[string]string{
	"campaign-ino": "59d5846bb574121a807fde1b6c2566ea0df1d8e291ba28d75ed2532332abbf85",
	"campaign-ooo": "77e2b39e320f16d8cafe134934434c866988cbd19be1a17dabda33ab7a201b47",
	"sweep-cold":   "3a5303743223ff662e312a9c9c278107e8e7caad027b8a330147ed76dd900dc4",
	"sweep-warm":   "44a56019ed759cc047c9d6727e1c08a1fcc36a40fbdba39bebd3a1ecaf782248",
}
