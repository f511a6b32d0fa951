package rules

// The paper stores *all* manager policies as JBoss rules (§4.2). Besides
// the farm rule file of Fig. 5, this repository ships the application
// (pipeline) manager's reaction policy in rule form: child violations are
// published into working memory as ViolationBeans and the rules below map
// them onto the incRate / decRate / endStream reactions of Fig. 4. Every
// pipeline's AM_A runs this file (internal/manager, rulepipe.go).

// Bean and field names used by the pipeline rule file.
const (
	BeanViolation = "ViolationBean"
	// ViolationBean fields: "tag" (string), "arrival" (reporter's arrival
	// rate), "done" (1 when the reporter saw the stream end).
)

// Operations fired by the pipeline rule file. Their names double as the
// trace event kinds, so AM_A logs the Fig. 4 events under these names.
const (
	OpIncRate   = "incRate"
	OpDecRate   = "decRate"
	OpEndStream = "endStream"
)

// PipeRuleSource is the application-manager policy of the Fig. 4
// experiment in rule form.
const PipeRuleSource = `
rule "ReactEndOfStream" salience 10
  when
    $v : ViolationBean( tag == "notEnoughTasks_VIOL" && done == 1 )
  then
    $v.fireOperation(endStream);
end

rule "ReactNotEnough"
  when
    $v : ViolationBean( tag == "notEnoughTasks_VIOL" && done == 0 )
  then
    $v.fireOperation(incRate);
end

rule "ReactTooMuch"
  when
    $v : ViolationBean( tag == "tooMuchTasks_VIOL" )
  then
    $v.fireOperation(decRate);
end
`

// NewPipeEngine parses PipeRuleSource. The constant table binds the
// violation tags the farm rules raise.
func NewPipeEngine() *Engine {
	return New(MustParse(PipeRuleSource), Constants{
		"notEnoughTasks_VIOL": Str(TagNotEnoughTasks),
		"tooMuchTasks_VIOL":   Str(TagTooMuchTasks),
	})
}
