(* SARIF 2.1.0 rendering of lint findings, for CI annotation uptake.
   Deliberately minimal: one run, one driver, one result per finding.
   The output is deterministic (rules sorted, findings in Finding.order)
   so it can be golden-tested. *)

module Json = Csm_obs.Json

let rule_descriptions =
  [
    ("R1", "determinism boundary: no ambient randomness/clock in core");
    ("R2", "no polymorphic comparison on field/frame values");
    ("R3", "mutex release discipline");
    ("R4", "module-level mutable state must be registered");
    ("R5", "decode_*/of_header must be total");
    ("R6", "untrusted value reaches a sink without a sanitizer");
    ("R7", "sanitizer verdict discarded or bypassed");
    ("R8", "taint escapes into unregistered module-level mutable state");
    ("R9", "lock taken while another lock is held");
    ("parse", "source does not parse");
  ]

let level_of = function Finding.Error -> "error" | Finding.Warning -> "warning"

let result_of (f : Finding.t) =
  Json.Obj
    [
      ("ruleId", Json.Str f.Finding.rule);
      ("level", Json.Str (level_of f.Finding.severity));
      ("message", Json.Obj [ ("text", Json.Str f.Finding.message) ]);
      ( "locations",
        Json.List
          [
            Json.Obj
              [
                ( "physicalLocation",
                  Json.Obj
                    [
                      ( "artifactLocation",
                        Json.Obj [ ("uri", Json.Str f.Finding.file) ] );
                      ( "region",
                        Json.Obj
                          [
                            ("startLine", Json.Int f.Finding.line);
                            ("startColumn", Json.Int (f.Finding.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]

let render (findings : Finding.t list) : Json.t =
  let findings = List.sort Finding.order findings in
  let rules =
    List.map
      (fun (id, desc) ->
        Json.Obj
          [
            ("id", Json.Str id);
            ( "shortDescription",
              Json.Obj [ ("text", Json.Str desc) ] );
          ])
      rule_descriptions
  in
  Json.Obj
    [
      ( "$schema",
        Json.Str
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.Str "csm-lint");
                            ("informationUri", Json.Str "DESIGN.md");
                            ("rules", Json.List rules);
                          ] );
                    ] );
                ("results", Json.List (List.map result_of findings));
              ];
          ] );
    ]
